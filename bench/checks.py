"""Correctness checks for the benchmark, computed apart from emisim.

Every expected value here comes from the driver table, the standard library
and numpy; nothing calls into ``emisim``. A failed check raises
:class:`CheckError` with a message naming the year and the numbers.
"""

from __future__ import annotations

import csv
import io
import math
from statistics import NormalDist

import numpy as np

YEARS = tuple(range(2020, 2036))
PERCENTILES = (5.0, 50.0, 95.0)
HALFWIDTH_FRACTION = 0.10
CI_LEVEL = 0.99
# Every statistical check allows 5 standard errors: a false alarm has a
# probability below 1e-6 per comparison, whatever the seed.
N_SE = 5.0
REL_EXACT = 1e-12


class CheckError(Exception):
    """An output of the program disagrees with the independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_csv(text: str) -> dict[str, np.ndarray]:
    """A numeric CSV with a header row (the driver table, a bands file) as
    one float array per column, keyed by the header."""
    rows = list(csv.DictReader(io.StringIO(text)))
    return {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}


def sigma_fraction() -> float:
    """sigma / mean for a +/-10% halfwidth at the 99% two-sided level."""
    z = NormalDist().inv_cdf((1.0 + CI_LEVEL) / 2.0)
    return HALFWIDTH_FRACTION / z


def check_band_shape(bands: dict[str, np.ndarray]) -> None:
    """16 rows 2020-2035, p5 <= p50 <= p95, every value finite and >= 0."""
    require(tuple(int(y) for y in bands["year"]) == YEARS,
            f"band years {bands['year'].tolist()} are not 2020-2035")
    values = np.column_stack([bands[k] for k in ("mean", "p5", "p50", "p95")])
    require(bool(np.all(np.isfinite(values))), "a band value is not finite")
    require(bool(np.all(values >= 0.0)), "a band value is negative")
    require(bool(np.all(bands["p5"] <= bands["p50"])), "p5 > p50 in some year")
    require(bool(np.all(bands["p50"] <= bands["p95"])), "p50 > p95 in some year")


def check_intensity_mean(bands, table, n: int) -> None:
    """Intensity model: E[co2] = kappa * prod(mu) = co2_mt, and
    Var = kappa^2 * (prod(mu^2 + sigma^2) - prod(mu^2)) over the three
    drivers the model multiplies (dc_twh, ai_share, mix_factor)."""
    c = sigma_fraction()
    co2 = table["co2_mt"]
    se = co2 * math.sqrt((1.0 + c * c) ** 3 - 1.0) / math.sqrt(n)
    for year, got, want, s in zip(YEARS, bands["mean"], co2, se):
        require(abs(got - want) <= N_SE * s,
                f"{year}: ensemble mean {got:.10g} is more than {N_SE:g} SE ({s:.3g}) from co2_mt {want:.10g}")


def check_common_factor(bands, table) -> None:
    """Per-variable mode: one draw per variable is shared by every year, so
    each percentile divided by co2_mt is the same number in every year."""
    for key in ("p5", "p50", "p95"):
        ratio = bands[key] / table["co2_mt"]
        spread = float(np.max(np.abs(ratio - ratio[0])))
        require(spread <= REL_EXACT * abs(ratio[0]),
                f"{key}/co2_mt differs across years by {spread:.3g} (ratio {ratio[0]:.10g})")


def regression_fit(table) -> tuple[np.ndarray, np.ndarray]:
    """Fitted CO2 per year from an own least-squares fit, and the standard
    deviation of a prediction when every driver is perturbed independently."""
    drivers = [table[k] for k in ("semis_twh", "dc_twh", "mix_factor", "ai_share")]
    design = np.column_stack([np.ones(len(YEARS))] + drivers)
    beta = np.linalg.lstsq(design, table["co2_mt"], rcond=None)[0]
    c = sigma_fraction()
    sd = np.sqrt(sum((b * c * x) ** 2 for b, x in zip(beta[1:], drivers)))
    return design @ beta, sd


def check_regression_mean(bands, table, n: int) -> None:
    """Per-year regression: where the fit is more than 6 sd above 0 the clamp
    to zero has no visible effect, so the mean is the fitted value."""
    fit, sd = regression_fit(table)
    checked = 0
    for year, got, want, s in zip(YEARS, bands["mean"], fit, sd):
        if want > 6.0 * s:
            checked += 1
            se = s / math.sqrt(n)
            require(abs(got - want) <= N_SE * se,
                    f"{year}: ensemble mean {got:.10g} is more than {N_SE:g} SE ({se:.3g}) from fit {want:.10g}")
    require(checked > 0, "no year has a fit 6 sd above zero")


def check_clamped_predictions(count: int, table, n: int) -> None:
    """Per-year regression: each entry clamps with probability Phi(-fit/sd)."""
    fit, sd = regression_fit(table)
    p = np.array([NormalDist().cdf(-f / s) for f, s in zip(fit, sd)])
    expected = n * float(p.sum())
    spread = math.sqrt(n * float(np.sum(p * (1.0 - p))))
    require(abs(count - expected) <= N_SE * spread,
            f"clamped predictions {count} are more than {N_SE:g} sd ({spread:.3g}) from {expected:.1f}")


def check_matrix_percentiles(matrix_text: str, bands, n: int) -> None:
    """numpy's linear percentiles of the written matrix equal the bands."""
    matrix = np.loadtxt(io.StringIO(matrix_text), delimiter=",", skiprows=1, ndmin=2)
    header = matrix_text.split("\n", 1)[0]
    require(tuple(int(y) for y in header.split(",")) == YEARS, f"matrix header {header!r}")
    require(matrix.shape == (n, len(YEARS)), f"matrix shape {matrix.shape}, want {(n, len(YEARS))}")
    want = np.percentile(matrix, PERCENTILES, axis=0, method="linear")
    for row, key in zip(want, ("p5", "p50", "p95")):
        err = np.abs(bands[key] - row)
        require(bool(np.all(err <= REL_EXACT * np.abs(row))),
                f"{key} differs from numpy.percentile by up to {float(err.max()):.3g}")
