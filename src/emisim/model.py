"""Emission models mapping driver tuples to Mt CO2 per year.

Two fitted forms are provided:

* implied intensity: one carbon-intensity coefficient per year,
  ``kappa(y) = co2 / (dc_twh * ai_share * mix_factor)``, which reproduces the
  training CO2 column exactly by construction. The semiconductor column has
  no multiplicative role in AI-attributed emissions and is excluded here;
  the kappa drift over the fitted years is surfaced in the diagnostics
  instead of being smoothed away.
* linear regression: ordinary least squares of CO2 on
  ``[1, semis_twh, dc_twh, mix_factor, ai_share]``, the literal
  columns-2-to-5 reading, kept for sensitivity comparison.

Models are immutable after fitting and prediction is pure, so instances are
safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
import numpy as np

from .core import DRIVER_VARIABLES, AnnualSeries, DriverTable, ModelKind, Unit
from .errors import DegenerateRowError, RankDeficientDesignError, YearOutsideFitError


@dataclass(frozen=True)
class ImpliedIntensityModel:
    """Exact-fit per-year intensity model (Mt per fossil-attributed TWh)."""

    kappa: AnnualSeries

    kind = ModelKind.IMPLIED_INTENSITY

    def __post_init__(self):
        if any(v <= 0.0 for v in self.kappa.values):
            raise ValueError("kappa must be positive for every fitted year")

    @property
    def years(self) -> tuple[int, ...]:
        return self.kappa.years

    def kappa_at(self, year: int) -> float:
        try:
            return self.kappa.value_at(year)
        except KeyError:
            raise YearOutsideFitError(
                f"year {year} outside fitted range {self.years[0]}-{self.years[-1]}"
            ) from None

    def predict_grid(self, years, semis_twh, dc_twh, mix_factor, ai_share):
        """Vectorized prediction; driver arrays have years on the last axis.
        ``semis_twh`` is not read and may be ``None``."""
        kappa_row = np.array([self.kappa_at(int(y)) for y in years])
        # one output array, multiplied in place in the order kappa * dc * ai * mix,
        # which fixes the bytes
        values = np.multiply(dc_twh, kappa_row)
        values *= ai_share
        values *= mix_factor
        return np.maximum(values, 0.0, out=values)

    def diagnostics(self) -> dict:
        values = self.kappa.values
        return {
            "kappa_min": min(values),
            "kappa_max": max(values),
            "note": "semis_twh unused by this form; kappa drift across years "
                    "is reported, not corrected",
        }


@dataclass(frozen=True)
class LinearRegressionModel:
    """OLS fit of CO2 on an intercept plus the four driver columns.

    ``coefficients`` is (b0, b_semis, b_dc, b_mix, b_ai). Negative predictions
    clamp to zero, since Monte Carlo tail draws can push drivers low enough
    to cross the fitted plane; ``EnsembleResult.clamped_predictions`` counts
    them.
    """

    coefficients: tuple[float, float, float, float, float]
    residual_sum_of_squares: float
    max_abs_residual: float

    kind = ModelKind.LINEAR_REGRESSION

    def __post_init__(self):
        if len(self.coefficients) != 5:
            raise ValueError("expected 5 coefficients")
        stats = (self.residual_sum_of_squares, self.max_abs_residual)
        if not all(np.isfinite(stats)):
            raise ValueError("non-finite fit diagnostics")

    def predict_grid(self, years, semis_twh, dc_twh, mix_factor, ai_share):
        b0, b1, b2, b3, b4 = self.coefficients
        # one output array, to which each term is added one year column at a
        # time, so no term is held at full size; each cell is summed left to
        # right, which fixes the bytes: b0 + b1 * semis + b2 * dc + b3 * mix + b4 * ai
        values = np.multiply(semis_twh, b1)
        values += b0
        for x, b in ((dc_twh, b2), (mix_factor, b3), (ai_share, b4)):
            x = np.broadcast_to(x, values.shape)
            for j in range(values.shape[-1]):
                values[..., j] += x[..., j] * b
        return np.maximum(values, 0.0, out=values)

    def diagnostics(self) -> dict:
        return {
            "residual_sum_of_squares": self.residual_sum_of_squares,
            "max_abs_residual": self.max_abs_residual,
        }


EmissionModel = ImpliedIntensityModel | LinearRegressionModel

#: The driver variables that ``predict_grid`` reads, by model kind: always a
#: tail of ``DRIVER_VARIABLES``, since only the intensity form skips one, semis_twh
READ_VARIABLES = {
    ModelKind.IMPLIED_INTENSITY: DRIVER_VARIABLES[1:],
    ModelKind.LINEAR_REGRESSION: DRIVER_VARIABLES,
}


def predict_table(model: EmissionModel, table: DriverTable) -> np.ndarray:
    """Mt CO2 predicted for each row of ``table``, in row order."""
    return model.predict_grid(table.years, *(table.column(v) for v in DRIVER_VARIABLES))


def fit_implied_intensity(table: DriverTable) -> ImpliedIntensityModel:
    """Solve kappa(year) so the model reproduces every co2_mt exactly.

    Raises :class:`DegenerateRowError` listing every year whose
    ``dc_twh * ai_share * mix_factor`` denominator is zero.
    """
    degenerate = []
    points = []
    for row in table.rows:
        denom = row.dc_twh * row.ai_share * row.mix_factor
        if denom <= 0.0:
            degenerate.append(row.year)
            continue
        points.append((row.year, row.co2_mt / denom))
    if degenerate:
        raise DegenerateRowError(
            f"zero driver product in year(s) {', '.join(map(str, degenerate))}"
        )
    return ImpliedIntensityModel(AnnualSeries(Unit.MT_PER_TWH, tuple(points)))


def fit_linear_regression(table: DriverTable) -> LinearRegressionModel:
    """Ordinary least squares on [1, semis, dc, mix, ai] -> co2."""
    n = len(table)
    if n < 6:
        raise ValueError(f"need at least 6 rows to fit 5 coefficients, got {n}")
    design = np.column_stack([np.ones(n), *(table.column(v) for v in DRIVER_VARIABLES)])
    target = np.asarray(table.column("co2_mt"))
    # Rank check on column-normalized design so the very different column
    # scales (1 vs ~1000 TWh) cannot mask exact collinearity.
    norms = np.linalg.norm(design, axis=0)
    if np.any(norms == 0.0) or np.linalg.matrix_rank(design / norms) < design.shape[1]:
        raise RankDeficientDesignError("driver columns are collinear")
    beta, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    residuals = target - design @ beta
    return LinearRegressionModel(
        coefficients=tuple(float(b) for b in beta),
        residual_sum_of_squares=float(residuals @ residuals),
        max_abs_residual=float(np.max(np.abs(residuals))),
    )


def fit_model(table: DriverTable, kind: ModelKind | str) -> EmissionModel:
    if ModelKind(kind) is ModelKind.IMPLIED_INTENSITY:
        return fit_implied_intensity(table)
    return fit_linear_regression(table)


# ---------------------------------------------------------------------------
# JSON export
# ---------------------------------------------------------------------------

def model_to_dict(model: EmissionModel) -> dict:
    if isinstance(model, ImpliedIntensityModel):
        fitted = {"kappa": model.kappa.to_json()["points"]}
    else:
        fitted = {"coefficients": list(model.coefficients)}
    return {"kind": model.kind.value, **fitted, "diagnostics": model.diagnostics()}


def model_to_json(model: EmissionModel) -> str:
    return json.dumps(model_to_dict(model), indent=2) + "\n"

