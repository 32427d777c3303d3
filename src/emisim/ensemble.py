"""Seeded Monte Carlo ensemble over driver trajectories.

The sampling contract:

* the standard normal in slot ``j`` of realization ``i`` is a pure function
  of ``(master_seed, i, j)``, computed by one vectorized counter-based kernel
  (:func:`standard_normals`), so results are independent of evaluation
  order, of how rows are blocked, and of the ``workers`` setting;
* slots are laid out variable-major in
  :data:`~emisim.core.DRIVER_VARIABLES` order, then by year in per-year
  mode; per-variable mode has one slot per variable, shared by every year;
* the stream is versioned as :data:`RNG_STREAM`; its bytes also depend on
  numpy's ``log``, ``cos`` and ``sin``, so run manifests record the numpy
  version;
* tail draws are clamped to the variable bounds, and the number of clamped
  entries is reported so distortion is visible.

Percentiles use linear interpolation between order statistics on (n - 1)
spacing: rank r = (p / 100) * (n - 1), interpolated between the two
neighboring sorted values. Nearest-rank definitions differ by less than one
sample weight at n = 10 000; the choice is fixed here and tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .core import (
    DRIVER_VARIABLES,
    FRACTION_VARIABLES,
    AnnualSeries,
    CorrelationMode,
    DriverTable,
    ModelKind,
    SimulationConfig,
    Unit,
    validate_driver_table,
)
from .errors import (
    EmptyEnsembleError,
    EmptyInputError,
    HalfwidthTooWideError,
    InvalidLevelError,
    MissingHalfwidthError,
)
from .ingest import csv_text
from .model import EmissionModel, fit_model

#: Version of the random stream behind every simulated number.
RNG_STREAM = "splitmix-boxmuller-v1"

_MASK64 = 0xFFFFFFFFFFFFFFFF
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_GAMMA = np.uint64(_SPLITMIX_GAMMA)
# Pairs of normals computed per block; bounds the temporaries, not the output.
_BLOCK_PAIRS = 1 << 15
# Elements of the widest per-row array (normals or one driver) per block of
# rows in _simulate_rows; bounds its temporaries, not its output.
_BLOCK_ELEMS = 1 << 16


def _splitmix64(state: np.ndarray) -> np.ndarray:
    """SplitMix64 output function of ``np.uint64`` states (wraps mod 2**64)."""
    z = (state ^ (state >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


def substream_seed(master_seed: int, index: int) -> int:
    """The (index+1)-th output of a SplitMix64 stream whose state starts at
    ``master_seed``."""
    state = (master_seed + (index + 1) * _SPLITMIX_GAMMA) & _MASK64
    return int(_splitmix64(np.array([state], dtype=np.uint64))[0])


def standard_normals(master_seed: int, start: int, stop: int, n_slots: int) -> np.ndarray:
    """Standard normals of realizations ``start .. stop - 1``, shape
    ``(stop - start, n_slots)``; entry (i, j) depends only on
    ``(master_seed, start + i, j)``.

    A counter-based stream (Salmon et al., "Parallel random numbers: as easy
    as 1, 2, 3", SC'11) built on SplitMix64 (Steele, Lea & Flood, OOPSLA'14)
    whose state starts at ``substream_seed(master_seed, 0)``. Realization
    ``i`` owns the pair counters ``i * n_pairs .. (i + 1) * n_pairs - 1``
    with ``n_pairs = ceil(n_slots / 2)``. Pair counter ``c`` reads stream
    outputs ``2c + 1`` and ``2c + 2`` as the 53-bit uniforms ``u1`` in
    (0, 1] and ``u2`` in [0, 1), and Box-Muller turns them into slots
    ``2k = r cos(2 pi u2)`` and ``2k + 1 = r sin(2 pi u2)`` of its
    realization, with ``r = sqrt(-2 ln u1)``.
    """
    n_pairs = -(-n_slots // 2)
    first = start * n_pairs
    total = (stop - start) * n_pairs
    key = np.uint64(substream_seed(master_seed, 0))
    out = np.empty((total, 2))
    for lo in range(0, total, _BLOCK_PAIRS):
        hi = min(lo + _BLOCK_PAIRS, total)
        counters = np.arange(first + lo, first + hi, dtype=np.uint64)
        state = key + (2 * counters + 1) * _GAMMA
        u1 = ((_splitmix64(state) >> 11) + 1) * 2.0**-53
        u2 = (_splitmix64(state + _GAMMA) >> 11) * 2.0**-53
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * math.pi * u2
        out[lo:hi, 0] = radius * np.cos(angle)
        out[lo:hi, 1] = radius * np.sin(angle)
    return out.reshape(stop - start, 2 * n_pairs)[:, :n_slots]


# ---------------------------------------------------------------------------
# Standard-normal quantile
# ---------------------------------------------------------------------------

def normal_quantile(p: float) -> float:
    """Inverse CDF of the standard normal distribution on (0, 1): Wichura's
    AS241 (1988), as implemented by :meth:`statistics.NormalDist.inv_cdf`."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument {p} outside (0, 1)")
    return NormalDist().inv_cdf(p)


def two_sided_z(level: float) -> float:
    """z such that P(|Z| <= z) = level for standard normal Z."""
    if not 0.0 < level < 1.0:
        raise InvalidLevelError(f"confidence level {level} outside (0, 1)")
    return normal_quantile((1.0 + level) / 2.0)


def ci_to_sigma(halfwidth: float, level: float) -> float:
    """Standard deviation whose two-sided ``level`` interval has the given
    halfwidth: sigma = halfwidth / z."""
    if halfwidth < 0.0:
        raise ValueError("halfwidth must be >= 0")
    if halfwidth == 0.0:
        two_sided_z(level)  # still validate the level
        return 0.0
    return halfwidth / two_sided_z(level)


def sigma_to_ci(sigma: float, level: float) -> float:
    """Inverse of :func:`ci_to_sigma`: halfwidth = sigma * z."""
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    return sigma * two_sided_z(level)


# ---------------------------------------------------------------------------
# Perturbation specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationSpec:
    """Normal perturbation of one driver variable: per-year mean and sigma
    plus the clamp interval for tail draws."""

    variable: str
    mean: AnnualSeries
    sigma: AnnualSeries
    bounds: tuple[float, float]

    def __post_init__(self):
        if self.variable not in DRIVER_VARIABLES:
            raise ValueError(f"unknown driver variable {self.variable!r}")
        if self.mean.years != self.sigma.years:
            raise ValueError("mean and sigma must cover the same years")
        if any(s < 0.0 for s in self.sigma.values):
            raise ValueError("sigma must be >= 0 everywhere")
        lower, upper = self.bounds
        if not lower < upper:
            raise ValueError("bounds must satisfy lower < upper")
        if any(not lower <= m <= upper for m in self.mean.values):
            raise ValueError(f"{self.variable} mean leaves bounds {self.bounds}")


def build_perturbations(table: DriverTable, config: SimulationConfig) -> list[PerturbationSpec]:
    """One spec per driver variable.

    A scalar halfwidth is a fraction of the per-year mean; an AnnualSeries
    halfwidth gives absolute per-year halfwidths. Either way sigma is the
    halfwidth divided by the two-sided normal quantile of ``ci_level``.
    """
    validate_driver_table(table)
    years = table.years
    z = two_sided_z(config.ci_level)
    specs = []
    for name in DRIVER_VARIABLES:
        if name not in config.halfwidths:
            raise MissingHalfwidthError(f"no halfwidth configured for {name}")
        spec = config.halfwidths[name]
        mean = table.column_series(name)
        if isinstance(spec, AnnualSeries):
            try:
                halfwidths = [spec.value_at(y) for y in years]
            except KeyError as exc:
                raise MissingHalfwidthError(f"halfwidth series for {name} missing {exc}") from None
        else:
            halfwidths = [float(spec) * m for m in mean.values]
        sigmas = [hw / z if hw else 0.0 for hw in halfwidths]
        limit = 1.0 if name in FRACTION_VARIABLES else np.finfo(float).max
        if max(sigmas) > limit:
            raise HalfwidthTooWideError(f"{name} halfwidth gives sigma {max(sigmas):.6g} > {limit:g}")
        sigma_unit = Unit.FRACTION if name in FRACTION_VARIABLES else Unit.TWH
        sigma = AnnualSeries(sigma_unit, tuple(zip(years, sigmas)))
        bounds = (0.0, 1.0) if name in FRACTION_VARIABLES else (0.0, math.inf)
        specs.append(PerturbationSpec(name, mean, sigma, bounds))
    return specs


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _simulate_rows(specs, model, master_seed: int, start: int, stop: int, mode: CorrelationMode):
    """Emission matrix of realizations ``start .. stop - 1`` with its clamped
    draw and prediction counts: ``mean + z * sigma`` per variable, clamped
    to the variable bounds, then one ``predict_grid`` call.

    The draws are made in blocks of rows written straight into the driver
    arrays, so besides those arrays and the model's output only one block
    of normals is held at a time."""
    years = specs[0].mean.years
    per_year = mode is CorrelationMode.INDEPENDENT_PER_YEAR
    n_slots = len(specs) * (len(years) if per_year else 1)
    n_rows = stop - start
    # (variable, year, realization): each driver is a column-major
    # (realizations x years) view, which keeps numpy's inner loops long
    # when z has one column, and a block of rows is one slice for all four
    drivers = np.empty((len(specs), len(years), n_rows))
    sigma = np.array([spec.sigma.values for spec in specs])[:, :, None]
    mean = np.array([spec.mean.values for spec in specs])[:, :, None]
    bounds = np.array([spec.bounds for spec in specs])
    lower, upper = bounds[:, 0, None, None], bounds[:, 1, None, None]
    step = max(1, _BLOCK_ELEMS // max(n_slots, len(years)))
    clamped = 0
    for lo in range(0, n_rows, step):
        hi = min(lo + step, n_rows)
        z = standard_normals(master_seed, start + lo, start + hi, n_slots)
        raw = drivers[:, :, lo:hi]
        np.multiply(z.reshape(hi - lo, len(specs), -1).transpose(1, 2, 0), sigma, out=raw)
        raw += mean
        clamped += int(np.count_nonzero((raw < lower) | (raw > upper)))
        np.clip(raw, lower, upper, out=raw)
    by_name = {spec.variable: drivers[k].T for k, spec in enumerate(specs)}
    matrix = model.predict_grid(years, *(by_name[v] for v in DRIVER_VARIABLES))
    pred_clamped = (
        int(np.count_nonzero(matrix == 0.0)) if model.kind is ModelKind.LINEAR_REGRESSION else 0
    )
    return matrix, clamped, pred_clamped


@dataclass(frozen=True)
class Realization:
    """One sampled emission trajectory and its clamp count."""

    emissions: AnnualSeries
    clamped_draws: int
    clamped_predictions: int


def sample_realization(
    specs: Sequence[PerturbationSpec],
    model: EmissionModel,
    realization_index: int,
    master_seed: int,
    correlation_mode: CorrelationMode = CorrelationMode.CORRELATED_PER_VARIABLE,
) -> Realization:
    """Draw one realization; bit-identical to the matching row of
    :func:`run_simulation` for the same seed and index."""
    row, clamped, pred_clamped = _simulate_rows(
        specs, model, master_seed, realization_index, realization_index + 1, correlation_mode
    )
    years = specs[0].mean.years
    emissions = AnnualSeries(Unit.MT_CO2, tuple(zip(years, row[0].tolist())))
    return Realization(emissions, clamped, pred_clamped)


@dataclass(frozen=True)
class EnsembleResult:
    """Realizations x years matrix of Mt CO2 with its provenance."""

    matrix: np.ndarray
    years: tuple[int, ...]
    master_seed: int
    config: SimulationConfig
    clamped_draws: int
    clamped_predictions: int

    def __post_init__(self):
        if self.matrix.shape != (self.config.realizations, len(self.years)):
            raise ValueError("matrix shape does not match realizations x years")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("non-finite emission values in ensemble")
        if np.any(self.matrix < 0.0):
            raise ValueError("negative emission values in ensemble")

    def to_csv_text(self) -> str:
        """One row per realization, one column per year."""
        # one row of Python floats at a time keeps the conversion's memory small
        return csv_text(map(str, self.years), (map(repr, row.tolist()) for row in self.matrix))


def run_simulation(
    table: DriverTable,
    config: SimulationConfig,
    model: EmissionModel | None = None,
    workers: int = 1,
) -> EnsembleResult:
    """Evaluate the full ensemble.

    The result is a pure function of ``(table, config)``: each row depends
    only on its own realization index (see :func:`standard_normals`).
    ``workers`` is kept for compatibility; neither the output nor the speed
    depends on it.
    """
    validate_driver_table(table)
    if model is None:
        model = fit_model(table, config.model_kind)
    specs = build_perturbations(table, config)
    matrix, clamped, pred_clamped = _simulate_rows(
        specs, model, config.master_seed, 0, config.realizations, config.correlation_mode
    )
    return EnsembleResult(matrix, table.years, config.master_seed, config, clamped, pred_clamped)


# ---------------------------------------------------------------------------
# Percentiles and bands
# ---------------------------------------------------------------------------

def _order_statistics(sorted_rows: np.ndarray, percentiles) -> np.ndarray:
    """Percentiles of each row of ``sorted_rows`` (sorted along its last
    axis), shape ``(rows, len(percentiles))``: with rank
    ``r = p / 100 * (n - 1)``, the value at ``floor(r)`` plus ``r - floor(r)``
    times the step to the next order statistic."""
    n = sorted_rows.shape[-1]
    ranks = np.asarray(percentiles, dtype=float) / 100.0 * (n - 1)
    lo = np.floor(ranks).astype(np.intp)
    below = sorted_rows[:, lo]
    above = sorted_rows[:, np.minimum(lo + 1, n - 1)]
    return below + (ranks - lo) * (above - below)


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile of ``values`` for p in (0, 100)."""
    if len(values) == 0:
        raise EmptyInputError("percentile of empty list")
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile {p} outside (0, 100)")
    return float(_order_statistics(np.sort(np.asarray(values, dtype=float))[None, :], (p,))[0, 0])


@dataclass(frozen=True)
class PercentileBands:
    """Per-year percentile levels plus the ensemble mean."""

    years: tuple[int, ...]
    percentiles: tuple[float, ...]
    levels: np.ndarray  # (n_years, n_percentiles)
    mean: np.ndarray    # (n_years,)

    def __post_init__(self):
        if np.any(np.diff(self.levels, axis=1) < 0.0):
            raise ValueError("band values must be non-decreasing in percentile")

    def value(self, year: int, p: float) -> float:
        return float(self.levels[self.years.index(year), self.percentiles.index(p)])

    def mean_at(self, year: int) -> float:
        return float(self.mean[self.years.index(year)])

    def to_csv_text(self) -> str:
        header = ["year", "mean"] + [f"p{p:g}" for p in self.percentiles]
        rows = zip(self.years, self.mean.tolist(), self.levels.tolist())
        return csv_text(header, ([str(y), repr(m), *map(repr, levels)] for y, m, levels in rows))

    def to_dict(self) -> dict:
        return {
            "years": list(self.years),
            "percentiles": list(self.percentiles),
            "mean": [float(v) for v in self.mean],
            "levels": [[float(v) for v in row] for row in self.levels],
        }


def bands_from_matrix(matrix: np.ndarray, years, percentiles) -> PercentileBands:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        raise EmptyEnsembleError("cannot take percentiles of an empty ensemble")
    percentiles = tuple(float(p) for p in percentiles)
    # one C-contiguous row per year, whatever the input layout: numpy sums a
    # row pairwise only along contiguous memory, so the means stay bit-exact
    columns = np.array(matrix.T, order="C")
    columns.sort(axis=1)
    levels = _order_statistics(columns, percentiles)
    # constant columns keep the degenerate (sigma = 0) collapse bit-exact
    means = np.where(columns[:, 0] == columns[:, -1], columns[:, 0], columns.mean(axis=1))
    return PercentileBands(tuple(years), percentiles, levels, means)


def bands(result: EnsembleResult, percentiles: Sequence[float] | None = None) -> PercentileBands:
    """Column-wise percentile bands (plus mean) of an ensemble."""
    if percentiles is None:
        percentiles = result.config.percentiles
    return bands_from_matrix(result.matrix, result.years, percentiles)
