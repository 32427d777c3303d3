import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri  # independent quantile oracle

from emisim.core import (
    AnnualSeries,
    CorrelationMode,
    ModelKind,
    SimulationConfig,
    Unit,
)
from emisim import ensemble
from emisim.ensemble import (
    EnsembleResult,
    bands,
    bands_from_matrix,
    build_perturbations,
    ci_to_sigma,
    normal_quantile,
    percentile,
    run_simulation,
    sample_realization,
    sigma_to_ci,
    standard_normals,
    substream_seed,
)
from emisim.errors import (
    EmptyEnsembleError,
    EmptyInputError,
    HalfwidthTooWideError,
    InvalidLevelError,
    MissingHalfwidthError,
)
from emisim.ingest import bundled_driver_table
from emisim.model import fit_implied_intensity, predict_table


@pytest.fixture(scope="module")
def table():
    return bundled_driver_table()


def _config(**kwargs):
    defaults = dict(realizations=200, master_seed=42)
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


def _uniform_halfwidths(fraction):
    return {v: fraction for v in ("semis_twh", "dc_twh", "mix_factor", "ai_share")}


# ---------------------------------------------------------------------------
# Normal quantile and CI conversion
# ---------------------------------------------------------------------------

def test_normal_quantile_against_oracle():
    for p in (1e-6, 0.001, 0.0242, 0.0243, 0.25, 0.5, 0.9, 0.975, 0.995, 1 - 1e-6):
        assert normal_quantile(p) == pytest.approx(float(ndtri(p)), abs=1e-9)


def test_normal_quantile_tabulated_values():
    assert normal_quantile(0.995) == pytest.approx(2.5758293035489004, abs=1e-9)
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
    assert normal_quantile(0.5) == 0.0


def test_normal_quantile_domain():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            normal_quantile(p)


def test_ci_to_sigma_examples():
    assert ci_to_sigma(2.5758293, 0.99) == pytest.approx(1.0, abs=1e-7)
    assert ci_to_sigma(2.5758293, 0.99) == pytest.approx(2.5758293 / float(ndtri(0.995)), rel=1e-12)
    assert ci_to_sigma(0.0, 0.99) == 0.0
    assert ci_to_sigma(0.0, 0.42) == 0.0
    assert ci_to_sigma(1.959964, 0.95) == pytest.approx(1.0, abs=1e-7)


def test_ci_sigma_roundtrip():
    for level in (0.5, 0.9, 0.95, 0.99, 0.999):
        for halfwidth in (0.1, 1.0, 91.8, 1234.5):
            sigma = ci_to_sigma(halfwidth, level)
            back = sigma_to_ci(sigma, level)
            assert abs(back - halfwidth) / halfwidth <= 1e-12


def test_invalid_level():
    for level in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(InvalidLevelError):
            ci_to_sigma(1.0, level)
        with pytest.raises(InvalidLevelError):
            sigma_to_ci(1.0, level)


def test_negative_halfwidth_rejected():
    with pytest.raises(ValueError):
        ci_to_sigma(-1.0, 0.99)


# ---------------------------------------------------------------------------
# Perturbation specs
# ---------------------------------------------------------------------------

def test_build_perturbations_sigma_oracle(table):
    specs = {s.variable: s for s in build_perturbations(table, _config())}
    # dc_twh 2030: mean 918, 10% halfwidth at 99% level
    sigma = specs["dc_twh"].sigma.value_at(2030)
    assert sigma == pytest.approx(91.8 / float(ndtri(0.995)), rel=1e-12)
    assert sigma == pytest.approx(35.64, abs=0.01)


def test_build_perturbations_bounds_and_means(table):
    specs = {s.variable: s for s in build_perturbations(table, _config())}
    assert specs["ai_share"].bounds == (0.0, 1.0)
    assert specs["mix_factor"].bounds == (0.0, 1.0)
    assert specs["dc_twh"].bounds == (0.0, math.inf)
    assert specs["semis_twh"].bounds == (0.0, math.inf)
    assert specs["ai_share"].mean.value_at(2030) == 0.73
    assert specs["ai_share"].mean.unit is Unit.FRACTION


def test_build_perturbations_zero_halfwidth(table):
    specs = build_perturbations(table, _config(halfwidths=_uniform_halfwidths(0.0)))
    assert all(v == 0.0 for s in specs for v in s.sigma.values)


def test_build_perturbations_missing_halfwidth(table):
    with pytest.raises(MissingHalfwidthError):
        build_perturbations(table, _config(halfwidths={"dc_twh": 0.1}))


def test_build_perturbations_per_year_series(table):
    hw = dict(_uniform_halfwidths(0.1))
    hw["dc_twh"] = AnnualSeries(Unit.TWH, tuple((y, 50.0) for y in table.years))
    specs = {s.variable: s for s in build_perturbations(table, _config(halfwidths=hw))}
    z = float(ndtri(0.995))
    assert specs["dc_twh"].sigma.value_at(2025) == pytest.approx(50.0 / z, rel=1e-12)


def test_build_perturbations_series_must_cover_years(table):
    hw = dict(_uniform_halfwidths(0.1))
    hw["dc_twh"] = AnnualSeries(Unit.TWH, ((2020, 50.0),))
    with pytest.raises(MissingHalfwidthError):
        build_perturbations(table, _config(halfwidths=hw))


def test_build_perturbations_rejects_fraction_sigma_above_one(table):
    # ai_share peaks at 0.73 in 2030: 4 x 0.73 / z(0.99) = 1.13, while 3x stays under 1
    build_perturbations(table, _config(halfwidths=_uniform_halfwidths(3.0)))
    with pytest.raises(HalfwidthTooWideError, match="ai_share"):
        build_perturbations(table, _config(halfwidths=_uniform_halfwidths(4.0)))
    hw = dict(_uniform_halfwidths(0.1))
    hw["mix_factor"] = AnnualSeries(Unit.FRACTION, tuple((y, 1.0) for y in table.years))
    build_perturbations(table, _config(halfwidths=hw))
    hw["mix_factor"] = AnnualSeries(Unit.TWH, tuple((y, 3.0) for y in table.years))
    with pytest.raises(HalfwidthTooWideError, match="mix_factor"):
        build_perturbations(table, _config(halfwidths=hw))


def test_build_perturbations_rejects_infinite_sigma(table):
    # 1e307 of a 269 TWh mean overflows to an infinite halfwidth
    hw = {**_uniform_halfwidths(0.1), "dc_twh": 1e307}
    with pytest.raises(HalfwidthTooWideError, match="dc_twh halfwidth gives sigma inf"):
        build_perturbations(table, _config(halfwidths=hw))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_substream_seeds_distinct():
    seeds = {substream_seed(42, i) for i in range(10_000)}
    assert len(seeds) == 10_000
    assert substream_seed(42, 0) != substream_seed(43, 0)


def test_sample_realization_deterministic(table):
    specs = build_perturbations(table, _config())
    model = fit_implied_intensity(table)
    a = sample_realization(specs, model, 5, 42)
    b = sample_realization(specs, model, 5, 42)
    assert a.emissions.points == b.emissions.points
    c = sample_realization(specs, model, 6, 42)
    assert c.emissions.points != a.emissions.points


def test_sample_realization_sigma_zero_equals_mean_curve(table):
    cfg = _config(halfwidths=_uniform_halfwidths(0.0))
    specs = build_perturbations(table, cfg)
    model = fit_implied_intensity(table)
    r = sample_realization(specs, model, 0, 42)
    assert r.emissions.points == tuple(zip(table.years, predict_table(model, table).tolist()))
    assert r.clamped_draws == 0


def test_sampled_drivers_respect_bounds_and_clamp_counter(table):
    # huge relative halfwidth forces tail draws past the bounds
    cfg = _config(realizations=500, halfwidths=_uniform_halfwidths(3.0))
    result = run_simulation(table, cfg)
    assert result.clamped_draws > 0
    assert np.all(result.matrix >= 0.0)
    assert np.all(np.isfinite(result.matrix))


def test_per_variable_draws_are_systematic_across_years(table):
    # realization i reads its normals from row i of the kernel: variable-major,
    # then year in per-year mode; one slot per variable, shared by every year,
    # in per-variable mode
    specs = build_perturbations(table, _config())
    model = fit_implied_intensity(table)
    n_years = len(table.years)
    for mode, n_slots in ((CorrelationMode.CORRELATED_PER_VARIABLE, 4),
                          (CorrelationMode.INDEPENDENT_PER_YEAR, 4 * n_years)):
        z = standard_normals(42, 3, 4, n_slots).reshape(4, -1)
        drivers = [np.array(s.mean.values) + z[k] * np.array(s.sigma.values)
                   for k, s in enumerate(specs)]
        expected = model.predict_grid(table.years, *drivers)
        got = sample_realization(specs, model, 3, 42, mode)
        assert np.array_equal(np.array(got.emissions.values), expected)
        # fractional halfwidths: a shared z scales every year by the same factor
        ratio = expected / np.asarray(table.column("co2_mt"))
        systematic = np.allclose(ratio, ratio[0], rtol=1e-12, atol=0.0)
        assert systematic == (mode is CorrelationMode.CORRELATED_PER_VARIABLE)


@pytest.mark.parametrize("n_slots", [4, 64])
@pytest.mark.parametrize("seed", [0, 42, 2**63 - 1])
def test_standard_normals_position_independent(n_slots, seed):
    # the determinism contract: a row is the same whether it is computed
    # alone, inside a slice, or inside the full call
    full = standard_normals(seed, 0, 3_000, n_slots)
    assert full.shape == (3_000, n_slots)
    for i in (0, 1, 511, 512, 1023, 1024, 1025, 2047, 2999):
        assert np.array_equal(standard_normals(seed, i, i + 1, n_slots)[0], full[i])
    assert np.array_equal(standard_normals(seed, 777, 2_345, n_slots), full[777:2_345])
    assert not np.array_equal(standard_normals(seed + 1, 0, 3_000, n_slots), full)


def test_standard_normals_distribution():
    draws = standard_normals(2024, 0, 50_000, 4).ravel()
    n = draws.size
    assert stats.kstest(draws, "norm").pvalue > 0.01
    assert abs(draws.mean()) <= 5.0 / math.sqrt(n)
    assert abs(draws.var() - 1.0) <= 5.0 * math.sqrt(2.0 / n)


def test_correlation_modes_differ(table):
    a = run_simulation(table, _config(correlation_mode=CorrelationMode.CORRELATED_PER_VARIABLE))
    b = run_simulation(table, _config(correlation_mode=CorrelationMode.INDEPENDENT_PER_YEAR))
    assert not np.array_equal(a.matrix, b.matrix)


# ---------------------------------------------------------------------------
# run_simulation
# ---------------------------------------------------------------------------

def test_run_simulation_shape_and_rerun_identity(table):
    cfg = _config(realizations=250)
    a = run_simulation(table, cfg)
    b = run_simulation(table, cfg)
    assert a.matrix.shape == (250, 16)
    assert np.array_equal(a.matrix, b.matrix)


def test_run_simulation_parallel_matches_serial(table):
    cfg = _config(realizations=500)
    serial = run_simulation(table, cfg, workers=1)
    parallel = run_simulation(table, cfg, workers=4)
    assert np.array_equal(serial.matrix, parallel.matrix)
    cfg_py = _config(realizations=500, correlation_mode=CorrelationMode.INDEPENDENT_PER_YEAR)
    assert np.array_equal(
        run_simulation(table, cfg_py, workers=1).matrix,
        run_simulation(table, cfg_py, workers=3).matrix,
    )


def test_run_simulation_rows_match_sample_realization(table):
    cfg = _config(realizations=20)
    result = run_simulation(table, cfg)
    specs = build_perturbations(table, cfg)
    model = fit_implied_intensity(table)
    for i in (0, 7, 19):
        r = sample_realization(specs, model, i, cfg.master_seed, cfg.correlation_mode)
        assert np.array_equal(np.array(r.emissions.values), result.matrix[i])


@pytest.mark.parametrize("mode", list(CorrelationMode))
@pytest.mark.parametrize("kind", list(ModelKind))
def test_row_blocks_do_not_change_results(table, monkeypatch, mode, kind):
    # draws are made in blocks of rows; blocks of 7 rows must give the bytes
    # of one block, across block edges and for a ragged last block
    n_slots = 4 * (len(table.years) if mode is CorrelationMode.INDEPENDENT_PER_YEAR else 1)
    step = 7
    for n in (1, step - 1, step, step + 1, 2 * step + 3):
        cfg = _config(realizations=n, correlation_mode=mode, model_kind=kind,
                      halfwidths=_uniform_halfwidths(3.0))
        whole = run_simulation(table, cfg)
        with monkeypatch.context() as m:
            m.setattr(ensemble, "_BLOCK_ELEMS", step * max(n_slots, len(table.years)))
            blocked = run_simulation(table, cfg)
        assert blocked.matrix.tobytes() == whole.matrix.tobytes()
        assert blocked.clamped_draws == whole.clamped_draws
        assert blocked.clamped_predictions == whole.clamped_predictions
    assert whole.clamped_draws > 0


@pytest.mark.parametrize("kind", list(ModelKind))
def test_run_simulation_peak_memory_is_bounded(table, kind):
    # the four driver arrays plus the model's output (and one term buffer
    # for the regression); the normals are drawn one block of rows at a time
    cfg = SimulationConfig(realizations=50_000, master_seed=7, model_kind=kind,
                           correlation_mode=CorrelationMode.INDEPENDENT_PER_YEAR)
    tracemalloc.start()
    try:
        result = run_simulation(table, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * result.matrix.nbytes


def test_single_deterministic_realization_is_observed_column(table):
    cfg = SimulationConfig(realizations=1, master_seed=0, halfwidths=_uniform_halfwidths(0.0))
    result = run_simulation(table, cfg)
    observed = np.asarray(table.column("co2_mt"))
    assert np.all(np.abs(result.matrix[0] - observed) / observed <= 1e-12)


def test_ensemble_mean_near_analytic_mean(table):
    # independent normal factors: E[kappa*dc*ai*mix] = kappa*E[dc]*E[ai]*E[mix],
    # so the ensemble mean at 2030 must stay near the observed 126.
    cfg = SimulationConfig(realizations=10_000, master_seed=42,
                           halfwidths=_uniform_halfwidths(0.05))
    result = run_simulation(table, cfg)
    year_idx = table.years.index(2030)
    assert result.matrix[:, year_idx].mean() == pytest.approx(126.0, rel=0.02)


def test_regression_model_ensemble(table):
    cfg = _config(model_kind=ModelKind.LINEAR_REGRESSION)
    result = run_simulation(table, cfg)
    assert np.all(result.matrix >= 0.0)


def test_ensemble_csv_roundtrip(table):
    result = run_simulation(table, _config(realizations=30))
    text = result.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(str(y) for y in table.years)
    parsed = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(parsed, result.matrix)


def test_ensemble_result_validates_matrix(table):
    cfg = _config(realizations=2)
    bad = np.array([[1.0] * 16, [-1.0] * 16])
    with pytest.raises(ValueError):
        EnsembleResult(bad, table.years, 42, cfg, 0, 0)


# ---------------------------------------------------------------------------
# Percentile
# ---------------------------------------------------------------------------

def test_percentile_worked_examples():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert percentile(values, 50) == 30.0
    assert percentile(values, 5) == 12.0
    assert percentile(values, 95) == 48.0


def test_percentile_single_element_and_unsorted_input():
    assert percentile([7.0], 37.5) == 7.0
    assert percentile([50.0, 10.0, 30.0, 20.0, 40.0], 5) == 12.0


def test_percentile_errors():
    with pytest.raises(EmptyInputError):
        percentile([], 50)
    for p in (0.0, 100.0, -1.0, 101.0):
        with pytest.raises(ValueError):
            percentile([1.0], p)


def test_percentile_matches_oracles_on_short_lists():
    rng = np.random.RandomState(123)
    for n in range(1, 9):
        for _ in range(3):
            values = list(rng.uniform(-100, 100, size=n))
            ranks = np.arange(n)
            sorted_values = np.sort(values)
            for p in range(1, 100):
                mine = percentile(values, p)
                # oracle 1: piecewise-linear inverse CDF via np.interp
                interp = float(np.interp(p / 100.0 * (n - 1), ranks, sorted_values))
                # oracle 2: numpy's linear-interpolation percentile
                ref = float(np.percentile(values, p))
                assert mine == pytest.approx(interp, abs=1e-9)
                assert mine == pytest.approx(ref, abs=1e-9)


# ---------------------------------------------------------------------------
# Bands
# ---------------------------------------------------------------------------

def test_bands_degenerate_sigma_collapse(table):
    cfg = _config(halfwidths=_uniform_halfwidths(0.0))
    result = run_simulation(table, cfg)
    b = bands(result)
    model_curve = predict_table(fit_implied_intensity(table), table).tolist()
    for i, (year, expected) in enumerate(zip(table.years, model_curve)):
        assert b.value(year, 5.0) == expected
        assert b.value(year, 50.0) == expected
        assert b.value(year, 95.0) == expected
        assert b.mean[i] == expected


def test_bands_monotone_across_percentiles(table):
    result = run_simulation(table, _config(realizations=2_000))
    b = bands(result)
    for year in table.years:
        assert b.value(year, 5.0) <= b.value(year, 50.0) <= b.value(year, 95.0)


def test_bands_monotone_on_random_ensembles():
    rng = np.random.RandomState(99)
    for _ in range(200):
        n_real = rng.randint(1, 40)
        n_years = rng.randint(1, 6)
        matrix = rng.uniform(0, 500, size=(n_real, n_years))
        years = tuple(range(2020, 2020 + n_years))
        b = bands_from_matrix(matrix, years, (5.0, 50.0, 95.0))
        assert np.all(np.diff(b.levels, axis=1) >= 0.0)


def _type7(sorted_values, p):
    """Hyndman & Fan type 7 percentile of a sorted list, in scalar arithmetic."""
    rank = p / 100.0 * (len(sorted_values) - 1)
    lo = math.floor(rank)
    if lo + 1 == len(sorted_values):
        return sorted_values[lo]
    return sorted_values[lo] + (rank - lo) * (sorted_values[lo + 1] - sorted_values[lo])


def test_bands_do_not_depend_on_matrix_layout(table):
    cfg = _config(realizations=1_000, correlation_mode=CorrelationMode.INDEPENDENT_PER_YEAR)
    matrix = run_simulation(table, cfg).matrix
    ps = (5.0, 50.0, 95.0)
    # reference: each column sorted on its own, as one contiguous 1-D array
    columns = [np.sort(matrix[:, j]) for j in range(matrix.shape[1])]
    assert all(col[0] != col[-1] for col in columns)
    expected_mean = np.array([col.mean() for col in columns])
    expected_levels = np.array([[_type7(col.tolist(), p) for p in ps] for col in columns])
    c_order = np.ascontiguousarray(matrix)
    for layout in (c_order, np.asfortranarray(matrix), c_order[::-1]):
        b = bands_from_matrix(layout, table.years, ps)
        assert b.mean.tobytes() == expected_mean.tobytes()
        assert b.levels.tobytes() == expected_levels.tobytes()


def test_bands_stay_inside_extreme_scenario_envelope(table):
    cfg = SimulationConfig(realizations=10_000, master_seed=42)
    b = bands(run_simulation(table, cfg))
    for year in range(2030, 2036):
        assert b.value(year, 5.0) >= 35.0
        assert b.value(year, 95.0) <= 240.0


def test_seed_42_bands_are_pinned(table):
    # a change of the random stream (RNG_STREAM) must show up here
    b = bands(run_simulation(table, SimulationConfig(realizations=10_000, master_seed=42)))
    pinned = {
        2030: (112.27212200064794, 125.74910473868667, 139.87285353540113),
        2035: (109.59897623872772, 122.7550784353846, 136.54254749884393),
    }
    for year, levels in pinned.items():
        for p, want in zip((5.0, 50.0, 95.0), levels):
            assert b.value(year, p) == pytest.approx(want, rel=1e-9)


def test_widening_halfwidths_weakly_widen_bands(table):
    widths = {}
    for hw in (0.05, 0.10, 0.15):
        cfg = SimulationConfig(realizations=10_000, master_seed=42,
                               halfwidths=_uniform_halfwidths(hw))
        b = bands(run_simulation(table, cfg))
        widths[hw] = [b.value(y, 95.0) - b.value(y, 5.0) for y in table.years]
    for small, big in ((0.05, 0.10), (0.10, 0.15)):
        assert all(w2 >= w1 for w1, w2 in zip(widths[small], widths[big]))


def test_bands_empty_ensemble():
    with pytest.raises(EmptyEnsembleError):
        bands_from_matrix(np.empty((0, 3)), (2020, 2021, 2022), (5.0, 50.0, 95.0))


def test_bands_csv_layout(table):
    b = bands(run_simulation(table, _config(realizations=50)))
    lines = b.to_csv_text().strip().split("\n")
    assert lines[0] == "year,mean,p5,p50,p95"
    assert len(lines) == 17
    first = lines[1].split(",")
    assert first[0] == "2020"
    assert len(first) == 5
