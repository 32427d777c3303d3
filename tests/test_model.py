import json
import tracemalloc

import numpy as np
import pytest

from emisim.core import DRIVER_VARIABLES, DriverRow, DriverTable, ModelKind
from emisim.errors import (
    DegenerateRowError,
    RankDeficientDesignError,
    YearOutsideFitError,
)
from emisim.ingest import bundled_driver_table
from emisim.model import (
    fit_implied_intensity,
    fit_linear_regression,
    model_to_json,
    predict_table,
)


@pytest.fixture(scope="module")
def table():
    return bundled_driver_table()


def _design(table):
    n = len(table)
    X = np.column_stack(
        [
            np.ones(n),
            table.column("semis_twh"),
            table.column("dc_twh"),
            table.column("mix_factor"),
            table.column("ai_share"),
        ]
    )
    return X, np.asarray(table.column("co2_mt"))


def _row(table, year):
    return {r.year: r for r in table.rows}[year]


def _predict(model, year, semis_twh, dc_twh, mix_factor, ai_share):
    """One prediction through the grid path, as a Python float."""
    return float(model.predict_grid((year,), [semis_twh], [dc_twh], [mix_factor], [ai_share])[0])


# ---------------------------------------------------------------------------
# Implied intensity
# ---------------------------------------------------------------------------

def test_kappa_matches_single_division_oracle(table):
    model = fit_implied_intensity(table)
    # oracle: direct division on the raw rows
    assert model.kappa_at(2030) == 126.0 / (918.0 * 0.73 * 0.43)
    assert model.kappa_at(2020) == 1.03 / (269.0 * 0.02 * 0.62)
    assert model.kappa_at(2030) == pytest.approx(0.43726, abs=5e-6)
    assert model.kappa_at(2020) == pytest.approx(0.30879, abs=5e-6)


def test_kappa_synthetic_unit_intensity():
    table = DriverTable.from_rows([DriverRow(2030, 50.0, 100.0, 0.5, 0.5, 25.0)])
    model = fit_implied_intensity(table)
    assert model.kappa_at(2030) == 1.0


def test_exact_fit_reproduces_training_column(table):
    model = fit_implied_intensity(table)
    for row, pred in zip(table.rows, predict_table(model, table)):
        assert abs(pred - row.co2_mt) / row.co2_mt <= 1e-12


def test_predict_examples(table):
    model = fit_implied_intensity(table)
    r2030 = _row(table, 2030)
    pred = _predict(model, 2030, r2030.semis_twh, r2030.dc_twh, r2030.mix_factor, r2030.ai_share)
    assert abs(pred - 126.0) / 126.0 <= 1e-9
    doubled = _predict(model, 2030, r2030.semis_twh, r2030.dc_twh, r2030.mix_factor, 2 * r2030.ai_share)
    assert doubled == pytest.approx(252.0, rel=1e-9)
    r2035 = _row(table, 2035)
    pred35 = _predict(model, 2035, r2035.semis_twh, r2035.dc_twh, r2035.mix_factor, r2035.ai_share)
    assert abs(pred35 - 123.0) / 123.0 <= 1e-9


def test_predict_multiplicative_homogeneity(table):
    model = fit_implied_intensity(table)
    r = _row(table, 2027)
    base = _predict(model, 2027, r.semis_twh, r.dc_twh, r.mix_factor, r.ai_share)
    # power-of-two scale factors commute exactly with float multiplication
    assert _predict(model, 2027, r.semis_twh, 2 * r.dc_twh, r.mix_factor, r.ai_share) == 2 * base
    assert _predict(model, 2027, r.semis_twh, r.dc_twh, 0.5 * r.mix_factor, r.ai_share) == 0.5 * base
    scaled = _predict(model, 2027, r.semis_twh, r.dc_twh, r.mix_factor, 1.7 * r.ai_share)
    assert scaled == pytest.approx(1.7 * base, rel=1e-14)


def test_predict_is_deterministic(table):
    model = fit_implied_intensity(table)
    r = _row(table, 2031)
    args = (2031, r.semis_twh, r.dc_twh, r.mix_factor, r.ai_share)
    assert _predict(model, *args) == _predict(model, *args)


@pytest.mark.parametrize("fit", [fit_implied_intensity, fit_linear_regression])
def test_predict_grid_keeps_inputs_and_accepts_lists(table, fit):
    model = fit(table)
    rng = np.random.default_rng(5)
    means = np.array([table.column(v) for v in ("semis_twh", "dc_twh", "mix_factor", "ai_share")])
    drivers = [np.asfortranarray(m * rng.uniform(0.0, 2.0, (40, len(table)))) for m in means]
    before = [d.copy() for d in drivers]
    got = model.predict_grid(table.years, *drivers)
    assert all(np.array_equal(d, b) for d, b in zip(drivers, before))
    # the grid computes in the order of the textbook formula, bit for bit
    semis, dc, mix, ai = before
    if model.kind is ModelKind.IMPLIED_INTENSITY:
        kappa = np.array(model.kappa.values)
        expected = np.maximum(kappa * dc * ai * mix, 0.0)
    else:
        b0, b1, b2, b3, b4 = model.coefficients
        expected = np.maximum(b0 + b1 * semis + b2 * dc + b3 * mix + b4 * ai, 0.0)
    assert got.tobytes() == expected.tobytes()
    assert np.any(got == 0.0) == (model.kind is ModelKind.LINEAR_REGRESSION)
    as_lists = model.predict_grid(table.years, *(d[3].tolist() for d in drivers))
    assert as_lists.tobytes() == got[3].tobytes()


def test_year_outside_fit(table):
    model = fit_implied_intensity(table)
    with pytest.raises(YearOutsideFitError):
        _predict(model, 2036, 0.0, 1000.0, 0.3, 0.6)
    with pytest.raises(YearOutsideFitError):
        _predict(model, 2019, 0.0, 1000.0, 0.3, 0.6)


def test_degenerate_row_lists_year():
    rows = [
        DriverRow(2020, 91.0, 269.0, 0.62, 0.02, 1.03),
        DriverRow(2021, 101.0, 300.0, 0.59, 0.0, 2.07),  # zero ai share
    ]
    with pytest.raises(DegenerateRowError) as exc:
        fit_implied_intensity(DriverTable.from_rows(rows))
    assert "2021" in str(exc.value)


# ---------------------------------------------------------------------------
# Linear regression
# ---------------------------------------------------------------------------

def test_ols_recovers_exact_linear_rule():
    rows = []
    rng = np.random.RandomState(3)
    for i, year in enumerate(range(2020, 2032)):
        semis = 90.0 + 15.0 * i + rng.uniform(-3, 3)
        dc = 250.0 + 60.0 * i + rng.uniform(-5, 5)
        mix = 0.62 - 0.02 * i + rng.uniform(-0.01, 0.01)
        ai = 0.02 + 0.05 * i + rng.uniform(-0.01, 0.01)
        rows.append(DriverRow(year, semis, dc, mix, ai, 2.0 + 0.1 * dc))
    model = fit_linear_regression(DriverTable.from_rows(rows))
    b0, b_semis, b_dc, b_mix, b_ai = model.coefficients
    assert b0 == pytest.approx(2.0, abs=1e-9)
    assert b_dc == pytest.approx(0.1, abs=1e-9)
    for b in (b_semis, b_mix, b_ai):
        assert b == pytest.approx(0.0, abs=1e-9)
    assert model.residual_sum_of_squares == pytest.approx(0.0, abs=1e-12)


def test_ols_rss_matches_normal_equations_oracle(table):
    model = fit_linear_regression(table)
    X, y = _design(table)
    beta = np.linalg.solve(X.T @ X, X.T @ y)  # independent solve path
    residuals = y - X @ beta
    rss_oracle = float(residuals @ residuals)
    assert abs(model.residual_sum_of_squares - rss_oracle) / rss_oracle <= 1e-6


def test_ols_residuals_orthogonal_to_columns(table):
    model = fit_linear_regression(table)
    X, y = _design(table)
    residuals = y - X @ np.array(model.coefficients)
    assert np.max(np.abs(X.T @ residuals)) <= 1e-8


def test_ols_rank_deficient_design(table):
    rows = [
        DriverRow(r.year, 2.0 * r.dc_twh, r.dc_twh, r.mix_factor, r.ai_share, r.co2_mt)
        for r in table.rows
    ]
    with pytest.raises(RankDeficientDesignError):
        fit_linear_regression(DriverTable.from_rows(rows))


def test_ols_needs_six_rows(table):
    with pytest.raises(ValueError):
        fit_linear_regression(DriverTable.from_rows(table.rows[:5]))


def _whole_array_regression(model, semis, dc, mix, ai):
    """The regression predict as one whole-array formula, summed left to right."""
    b0, b1, b2, b3, b4 = model.coefficients
    semis, dc, mix, ai = map(np.asarray, (semis, dc, mix, ai))
    return np.maximum(b0 + b1 * semis + b2 * dc + b3 * mix + b4 * ai, 0.0)


@pytest.mark.parametrize("n", [1, 2, 17, 5000, 12295])
def test_blocked_regression_predict_matches_whole_array(table, n):
    model = fit_linear_regression(table)
    rng = np.random.default_rng(n)
    means = np.array([table.column(v) for v in DRIVER_VARIABLES])
    # (variable, year, realization) as run_simulation holds them, so each driver
    # is an F-ordered (n x years) view; zero drivers clamp, the mean ones do not
    drivers = means[:, :, None] * rng.uniform(0.0, 2.0, (4, len(table), n))
    drivers[:, 0, 0] = 0.0
    drivers[:, -1, -1] = means[:, -1]
    views = [d.T for d in drivers]
    got = model.predict_grid(table.years, *views)
    expected = _whole_array_regression(model, *views)
    assert got.flags.f_contiguous and got.shape == (n, len(table))
    assert got.tobytes() == expected.tobytes()
    assert np.any(got == 0.0) and np.any(got > 0.0)
    # C-ordered arrays give the same values
    c_ordered = [np.ascontiguousarray(v) for v in views]
    got_c = model.predict_grid(table.years, *c_ordered)
    assert got_c.flags.c_contiguous and got_c.tobytes() == expected.tobytes()
    # a (years,) column broadcasts against (n x years) drivers
    mixed = (views[0], views[1], means[2], views[3])
    assert model.predict_grid(table.years, *mixed).tobytes() == \
        _whole_array_regression(model, *mixed).tobytes()


def test_blocked_regression_predict_of_year_columns(table):
    # the 1-D columns predict_table passes have one cell per year
    model = fit_linear_regression(table)
    columns = [np.array(table.column(v)) for v in DRIVER_VARIABLES]
    halved = [tuple(0.5 * c) for c in columns]
    got = model.predict_grid(table.years, *halved)
    assert got.tobytes() == _whole_array_regression(model, *halved).tobytes()
    assert np.any(got == 0.0)
    assert predict_table(model, table).tobytes() == _whole_array_regression(model, *columns).tobytes()


def test_blocked_regression_predict_memory(table):
    # no term is held at full size: one year column's product at a time
    model = fit_linear_regression(table)
    n = 12295
    drivers = np.ones((4, len(table), n))
    tracemalloc.start()
    try:
        got = model.predict_grid(table.years, *(d.T for d in drivers))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= got.nbytes + n * drivers.itemsize + 64 * 1024


def test_regression_clamps_negative_predictions(table):
    model = fit_linear_regression(table)
    # drive everything to zero: intercept is negative for the bundled fit
    assert model.coefficients[0] < 0.0
    assert _predict(model, 2030, 0.0, 0.0, 0.0, 0.0) == 0.0
    assert _predict(model, 2030, *_mid_drivers(table)) > 0.0


def _mid_drivers(table):
    r = _row(table, 2030)
    return r.semis_twh, r.dc_twh, r.mix_factor, r.ai_share


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def test_intensity_model_json_roundtrip(table):
    # the JSON emisim fit writes gives back every kappa bit for bit
    model = fit_implied_intensity(table)
    doc = json.loads(model_to_json(model))
    assert doc["kind"] == "implied_intensity"
    assert [tuple(p) for p in doc["kappa"]] == list(model.kappa.points)


def test_regression_model_json_roundtrip(table):
    model = fit_linear_regression(table)
    doc = json.loads(model_to_json(model))
    assert doc["kind"] == "linear_regression"
    assert tuple(doc["coefficients"]) == model.coefficients
    assert doc["diagnostics"] == model.diagnostics()
