import json
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from emisim.core import (
    DRIVER_VARIABLES,
    AnnualSeries,
    CorrelationMode,
    DriverRow,
    DriverTable,
    ModelKind,
    ScenarioFamily,
    ScenarioTrajectory,
    SimulationConfig,
    Unit,
    as_number,
    as_year,
    mean_scenario,
    validate_driver_table,
)
from emisim.errors import DriverTableError
from emisim.ingest import bundled_ai_co2_bundle, bundled_driver_table


def _traj(name, points, unit=Unit.MT_CO2, family=ScenarioFamily.AI_STUDY):
    return ScenarioTrajectory(name, family, AnnualSeries(unit, tuple(points)))


# ---------------------------------------------------------------------------
# AnnualSeries invariants
# ---------------------------------------------------------------------------

def test_series_years_strictly_increasing():
    with pytest.raises(ValueError):
        AnnualSeries(Unit.TWH, ((2020, 1.0), (2020, 2.0)))
    with pytest.raises(ValueError):
        AnnualSeries(Unit.TWH, ((2021, 1.0), (2020, 2.0)))


def test_series_contiguous_flag():
    # a series may have gaps; year contiguity is a driver-table rule
    AnnualSeries(Unit.TWH, ((2020, 1.0), (2022, 2.0)))


def test_series_value_constraints():
    with pytest.raises(ValueError):
        AnnualSeries(Unit.TWH, ((2020, -1.0),))
    with pytest.raises(ValueError):
        AnnualSeries(Unit.TWH, ((2020, math.nan),))
    with pytest.raises(ValueError):
        AnnualSeries(Unit.FRACTION, ((2020, 1.3),))
    AnnualSeries(Unit.FRACTION, ((2020, 0.0), (2021, 1.0)))


_series = st.builds(
    lambda unit, start, values: AnnualSeries(unit, tuple(enumerate(values, start=start))),
    st.sampled_from(Unit),
    st.integers(1900, 2100),
    st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20),
)


@given(_series)
def test_series_json_round_trip(s):
    doc = json.loads(json.dumps(s.to_json()))
    assert AnnualSeries.from_json(doc) == s
    # a document without its unit takes the unit given
    assert AnnualSeries.from_json({"points": doc["points"]}, s.unit) == s
    with pytest.raises(ValueError, match="no unit"):
        AnnualSeries.from_json({"points": doc["points"]})


def test_series_lookup():
    s = AnnualSeries(Unit.MT_CO2, ((2020, 1.0), (2021, 2.0)))
    assert s.value_at(2021) == 2.0
    assert 2020 in s.years and 2019 not in s.years
    with pytest.raises(KeyError):
        s.value_at(2019)


# ---------------------------------------------------------------------------
# mean_scenario
# ---------------------------------------------------------------------------

def test_mean_of_quoted_endpoints():
    trajectories = [
        _traj("Sustainable AI", [(2035, 115.0)]),
        _traj("Limits To Growth", [(2035, 115.0)]),
        _traj("Abundance Without Boundaries", [(2035, 240.0)]),
        _traj("Energy Crisis", [(2035, 35.0)]),
    ]
    mean = mean_scenario(trajectories)
    assert mean.value_at(2035) == pytest.approx(126.25, abs=1e-12)
    # consistency with the observed-table value of 123 at 2035
    assert abs(mean.value_at(2035) - 123.0) / 123.0 < 0.05


def test_mean_of_bundled_scenarios_matches_quote():
    mean = mean_scenario(list(bundled_ai_co2_bundle().trajectories))
    assert mean.value_at(2035) == 126.25


def test_mean_of_identical_series_is_identity():
    s = AnnualSeries(Unit.TWH, ((2020, 0.1), (2021, 269.0), (2022, 300.5)))
    for k in (1, 2, 3, 5):
        mean = mean_scenario([_traj("Surge", s.points, Unit.TWH)] * k)
        assert mean.points == s.points  # bit-exact


def test_mean_midpoint():
    mean = mean_scenario([_traj("a", [(2030, 10.0)]), _traj("b", [(2030, 30.0)])])
    assert mean.points == ((2030, 20.0),)


def test_mean_window_is_year_intersection():
    a = _traj("a", [(2020, 1.0), (2021, 2.0), (2022, 3.0)])
    b = _traj("b", [(2021, 4.0), (2022, 5.0), (2023, 6.0)])
    mean = mean_scenario([a, b])
    assert mean.years == (2021, 2022)
    assert mean.value_at(2021) == 3.0


def test_mean_permutation_invariant():
    rng = random.Random(7)
    years = tuple(range(2020, 2030))
    trajectories = [
        _traj(f"t{i}", [(y, rng.uniform(0.001, 500.0)) for y in years]) for i in range(6)
    ]
    baseline = mean_scenario(trajectories)
    for _ in range(10):
        shuffled = trajectories[:]
        rng.shuffle(shuffled)
        assert mean_scenario(shuffled).points == baseline.points


def test_mean_bounded_by_envelope():
    rng = random.Random(11)
    years = tuple(range(2020, 2036))
    trajectories = [
        _traj(f"t{i}", [(y, rng.uniform(0.0, 300.0)) for y in years]) for i in range(5)
    ]
    mean = mean_scenario(trajectories)
    for y in years:
        values = [t.series.value_at(y) for t in trajectories]
        assert min(values) <= mean.value_at(y) <= max(values)


def test_mean_errors():
    with pytest.raises(ValueError, match="no trajectories to average"):
        mean_scenario([])
    with pytest.raises(ValueError, match="cannot average TWh with MtCO2"):
        mean_scenario([_traj("a", [(2020, 1.0)], Unit.TWH), _traj("b", [(2020, 1.0)], Unit.MT_CO2)])
    with pytest.raises(ValueError, match="input series share no common year"):
        mean_scenario([_traj("a", [(2020, 1.0)]), _traj("b", [(2025, 1.0)])])


# ---------------------------------------------------------------------------
# validate_driver_table
# ---------------------------------------------------------------------------

def _row(year=2020, semis=91.0, dc=269.0, mix=0.62, ai=0.02, co2=1.03):
    return DriverRow(year, semis, dc, mix, ai, co2)


def test_bundled_table_is_valid():
    table = bundled_driver_table()
    assert validate_driver_table(table) is table
    assert len(table) == 16
    assert table.years == tuple(range(2020, 2036))


def test_fraction_out_of_range():
    with pytest.raises(DriverTableError, match=r"mix_factor = 1\.3 outside \(0, 1\]") as exc:
        DriverTable.from_rows([_row(), _row(year=2021, mix=1.3)])
    assert "2021" in str(exc.value)


def test_gap_in_years():
    with pytest.raises(DriverTableError, match="year 2022: expected 2021 after 2020"):
        DriverTable.from_rows([_row(year=2020), _row(year=2022)])


def test_non_positive_value():
    with pytest.raises(DriverTableError, match="year 2020: dc_twh = 0.0 must be > 0"):
        DriverTable.from_rows([_row(dc=0.0)])


def test_report_lists_every_violation():
    with pytest.raises(DriverTableError, match=r"driver table has 4 violation\(s\)") as exc:
        DriverTable.from_rows(
            [_row(year=2020, mix=1.5), _row(year=2022, dc=-3.0), _row(year=2023, ai=2.0)]
        )
    message = str(exc.value)
    assert "mix_factor" in message and "dc_twh" in message and "ai_share" in message
    assert len(exc.value.violations) == 4  # three value violations plus the year gap


# ---------------------------------------------------------------------------
# SimulationConfig
# ---------------------------------------------------------------------------

def test_config_defaults():
    cfg = SimulationConfig()
    assert cfg.realizations == 10_000
    assert cfg.ci_level == 0.99
    assert cfg.percentiles == (5.0, 50.0, 95.0)
    assert set(cfg.halfwidths) == {"semis_twh", "dc_twh", "mix_factor", "ai_share"}
    assert all(v == 0.10 for v in cfg.halfwidths.values())


@pytest.mark.parametrize(
    "kwargs",
    [
        {"realizations": 0},
        {"ci_level": 0.0},
        {"ci_level": 1.0},
        {"percentiles": (5.0, 5.0)},
        {"percentiles": (95.0, 5.0)},
        {"percentiles": (0.0, 50.0)},
        {"halfwidths": {"nope": 0.1}},
        {"halfwidths": {"dc_twh": -0.1}},
        {"master_seed": -1},
        {"master_seed": 2**64},
        {"halfwidths": {"semis_twh": True}},
        {"halfwidths": {"dc_twh": "0.1"}},
        {"halfwidths": {"dc_twh": None}},
        {"realizations": True},
        {"realizations": 3.0},
        {"master_seed": True},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SimulationConfig(**kwargs)


def test_as_number_takes_only_real_numbers():
    for value in (2, 0.5, np.float32(0.5), np.float64(0.25), np.int64(7)):
        assert as_number(value) == float(value) and type(as_number(value)) is float
    for text in ("2020", " 5 ", "1e0", "nan"):
        with pytest.raises(ValueError, match="could not convert string"):
            as_number(text)
    for flag in (True, False):
        with pytest.raises(ValueError, match="is not a number"):
            as_number(flag)
    for other in (None, [1.0], np.bool_(True)):
        with pytest.raises(TypeError, match="expected a number"):
            as_number(other)
    assert as_year(np.int64(2020)) == as_year(2020.0) == 2020
    with pytest.raises(ValueError):
        as_year("2020")


_finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
_halfwidth_series = st.builds(
    lambda unit, start, values: AnnualSeries(unit, tuple(enumerate(values, start=start))),
    st.sampled_from([Unit.TWH, Unit.FRACTION]),
    st.integers(1900, 2100),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
)
_configs = st.builds(
    SimulationConfig,
    realizations=st.integers(1, 10**9),
    master_seed=st.integers(0, 2**64 - 1),
    ci_level=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    halfwidths=st.fixed_dictionaries(
        {v: st.one_of(_finite, _halfwidth_series) for v in DRIVER_VARIABLES}
    ),
    correlation_mode=st.sampled_from(CorrelationMode),
    percentiles=st.lists(
        st.floats(min_value=0.0, max_value=100.0, exclude_min=True, exclude_max=True),
        min_size=1, max_size=5, unique=True,
    ).map(sorted).map(tuple),
    model_kind=st.sampled_from(ModelKind),
)


@given(_configs)
def test_config_json_round_trip(cfg):
    assert SimulationConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_config_from_dict_defaults_and_series_unit():
    assert SimulationConfig.from_dict({}) == SimulationConfig()
    cfg = SimulationConfig.from_dict({"halfwidths": {"dc_twh": {"points": [[2020, 40]]}}})
    assert cfg.halfwidths == {"dc_twh": AnnualSeries(Unit.TWH, ((2020, 40.0),))}


def test_config_reads_a_halfwidth_series_in_its_json_form_as_twh():
    cfg = SimulationConfig(halfwidths={"dc_twh": {"points": [[2020, 40]]}, "ai_share": 0.1})
    assert cfg.halfwidths == {"dc_twh": AnnualSeries(Unit.TWH, ((2020, 40.0),)), "ai_share": 0.1}


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"realisations": 5}, "'realisations'"),
        ({"seed": 1, "model": "regression"}, "'model', 'seed'"),
        ({"realizations": 5.0}, "realizations must be an integer"),
        ({"realizations": True}, "realizations must be an integer"),
        ({"master_seed": "x"}, "master_seed must be an integer"),
        ({"correlation_mode": "per-decade"}, "CorrelationMode"),
        ({"model_kind": "intensity"}, "ModelKind"),
        ({"halfwidths": 0.1}, "AttributeError"),
        ({"halfwidths": {"dc_twh": {"unit": "TWh"}}}, "KeyError"),
        ({"halfwidths": {"dc_twh": {"unit": "parsec", "points": []}}}, "Unit"),
        ({"percentiles": 50}, "TypeError"),
        ({"ci_level": None}, "TypeError"),
        ({"halfwidths": {"dc_twh": {"unit": "parsec", "points": []}}}, "halfwidths: dc_twh: "),
        ({"halfwidths": {"ai_share": "wide"}}, "halfwidths: ai_share: could not convert"),
        ({"percentiles": "5"}, "percentiles: .*string '5'"),
        ({"percentiles": [5, "x"]}, "percentiles: could not convert"),
        ({"ci_level": "x"}, "ci_level: could not convert string to float: 'x'"),
        ({"master_seed": -1}, r"master_seed must be in \[0, 2\*\*64\), got -1"),
        ({"master_seed": 2**64}, "master_seed must be in"),
    ],
)
def test_config_from_dict_rejects(doc, message):
    with pytest.raises(ValueError, match=message):
        SimulationConfig.from_dict(doc)
