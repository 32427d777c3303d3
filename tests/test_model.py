import numpy as np
import pytest

from emisim.core import DriverRow, DriverTable, ModelKind
from emisim.errors import (
    DegenerateRowError,
    RankDeficientDesignError,
    YearOutsideFitError,
)
from emisim.ingest import bundled_driver_table
from emisim.model import (
    fit_implied_intensity,
    fit_linear_regression,
    model_from_json,
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
    model = fit_implied_intensity(table)
    restored = model_from_json(model_to_json(model))
    assert restored.kappa.points == model.kappa.points
    r = _row(table, 2033)
    assert _predict(restored, 2033, r.semis_twh, r.dc_twh, r.mix_factor, r.ai_share) == \
        _predict(model, 2033, r.semis_twh, r.dc_twh, r.mix_factor, r.ai_share)


def test_regression_model_json_roundtrip(table):
    model = fit_linear_regression(table)
    restored = model_from_json(model_to_json(model))
    assert restored.coefficients == model.coefficients
    assert restored.residual_sum_of_squares == model.residual_sum_of_squares
    assert restored.max_abs_residual == model.max_abs_residual
