"""Seeded Monte Carlo ensemble over driver trajectories.

:func:`run_simulation` is the one sampler: it perturbs, clamps and predicts
every realization, and realization ``i`` is row ``i`` of its matrix. The
sampling contract:

* the standard normal in slot ``j`` of realization ``i`` is a pure function
  of ``(master_seed, i, j)``, computed by one vectorized counter-based kernel
  (:func:`standard_normals`), so results are independent of evaluation
  order, of how rows and slots are blocked, and of the ``workers`` setting;
* slots are laid out variable-major in :class:`Perturbation` row order,
  then by year in per-year mode; per-variable mode has one slot per
  variable, shared by every year;
* the stream is versioned as :data:`RNG_STREAM`; its bytes also depend on
  numpy's ``log`` and ``tan``, whose SIMD code numpy picks for each CPU (not
  on ``cos`` or ``sin``), so run manifests record the numpy version and the
  SIMD target numpy dispatches ``log`` and ``tan`` to;
* only the variables the model reads are drawn; tail draws are clamped to
  their bounds, and the clamped entries are counted so distortion is visible.

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
    validate_percentiles,
)
from .ingest import csv_text
from .matrix import matrix_csv_text
from .model import READ_VARIABLES, EmissionModel, fit_model

#: Version of the random stream behind every simulated number.
RNG_STREAM = "splitmix-boxmuller-v2"

_MASK64 = 0xFFFFFFFFFFFFFFFF
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_GAMMA = np.uint64(_SPLITMIX_GAMMA)
# Elements per block of rows in run_simulation of its widest per-row array:
# one driver, or the normals of the slots the kernel fills at once (one or
# two variables' years in per-year mode). Bounds its temporaries, not its output.
_BLOCK_ELEMS = 1 << 16


def _splitmix64(state: np.ndarray, scratch: np.ndarray) -> None:
    """SplitMix64 output function, in place on ``np.uint64`` states (wraps
    mod 2**64); ``scratch`` is a uint64 array of the same shape."""
    np.right_shift(state, 30, out=scratch)
    state ^= scratch
    state *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(state, 27, out=scratch)
    state ^= scratch
    state *= np.uint64(0x94D049BB133111EB)
    np.right_shift(state, 31, out=scratch)
    state ^= scratch


class _NormalKernel:
    """Computes the standard normals (see :func:`standard_normals`) of at
    most ``pairs`` Box-Muller pairs, all ``ceil(n_slots / 2)`` by default, of
    blocks of at most ``rows`` realizations, in two buffers of
    ``2 * pairs * rows`` words that it owns and reuses. Besides IEEE
    arithmetic and ``sqrt``, it calls numpy's ``log`` and ``tan`` alone."""

    def __init__(self, master_seed: int, n_slots: int, rows: int, pairs: int | None = None):
        self.n_pairs = n_pairs = -(-n_slots // 2)
        pairs = n_pairs if pairs is None else pairs
        first = np.array([(master_seed + _SPLITMIX_GAMMA) & _MASK64], dtype=np.uint64)
        _splitmix64(first, np.empty_like(first))
        self.first = int(first[0])
        # stream output k has the state first + k * gamma: pair p of row r
        # reads outputs 2 (r * n_pairs + p) + 1 + c, with c = 0 for u1 and 1 for u2
        self.row_gammas = np.arange(rows, dtype=np.uint64) * np.uint64(
            2 * n_pairs * _SPLITMIX_GAMMA & _MASK64)
        self.slot_gammas = (np.arange(2 * pairs, dtype=np.uint64) * _GAMMA).reshape(pairs, 2).T
        self.states = np.empty(2 * pairs * rows, dtype=np.uint64)
        self.normals = np.empty(2 * pairs * rows)

    def fill(self, start: int, rows: int, p0: int = 0, p1: int | None = None) -> np.ndarray:
        """The normals of pairs ``p0 .. p1 - 1`` (all by default) of
        realizations ``start .. start + rows - 1`` as a ``(2 * (p1 - p0), rows)``
        view of the kernel's buffer, valid until the next call, whose ``[s, r]``
        is slot ``2 * p0 + s`` of realization ``start + r``."""
        pairs = (self.n_pairs if p1 is None else p1) - p0
        size = 2 * pairs * rows
        states = self.states[:size].reshape(2, pairs, rows)
        normals = self.normals[:size].reshape(pairs, 2, rows)
        # _splitmix64's scratch in the layout of states: a transposed view is slower
        scratch = self.normals[:size].view(np.uint64).reshape(2, pairs, rows)
        offset = (self.first + (2 * (start * self.n_pairs + p0) + 1) * _SPLITMIX_GAMMA) & _MASK64
        np.add(self.slot_gammas[:, :pairs, None] + np.uint64(offset), self.row_gammas[:rows],
               out=states)
        _splitmix64(states, scratch)
        states >>= 11
        # m < 2**53 converts exactly, and so does u1 = m 2**-53 + 2**-53; a
        # power of two scales exactly, so m (pi 2**-53) rounds as pi u2
        m = states.view(np.int64)
        radius, angle = states.view(np.float64)
        np.multiply(m[0], 2.0**-53, out=radius)
        radius += 2.0**-53
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        # cos and sin of 2 pi u2 from t = tan(pi u2), the tangent half-angle
        # identities: (1 - t**2, 2 t) / (1 + t**2). No double is pi / 2, so
        # |t| < 1.7e16 and 1 + t**2 stays finite
        np.multiply(m[1], math.pi * 2.0**-53, out=angle)
        np.tan(angle, out=angle)
        np.add(angle, angle, out=normals[:, 1])
        np.square(angle, out=angle)
        np.subtract(1.0, angle, out=normals[:, 0])
        angle += 1.0
        radius /= angle
        normals *= radius[:, None, :]
        return normals.reshape(2 * pairs, rows)


def standard_normals(master_seed: int, start: int, stop: int, n_slots: int) -> np.ndarray:
    """Standard normals of realizations ``start .. stop - 1``, shape
    ``(stop - start, n_slots)``; entry (i, j) depends only on
    ``(master_seed, start + i, j)``.

    A counter-based stream (Salmon et al., "Parallel random numbers: as easy
    as 1, 2, 3", SC'11) built on SplitMix64 (Steele, Lea & Flood, OOPSLA'14):
    stream output ``k`` is SplitMix64 of the state ``first + k * gamma``
    (mod 2**64), where ``first`` is the first output of a SplitMix64 stream
    seeded with ``master_seed``. Realization ``i`` owns the pair counters
    ``c = i * n_pairs + p`` for ``p < n_pairs = ceil(n_slots / 2)``. Pair
    counter ``c`` reads stream outputs ``2c + 1`` and ``2c + 2`` as the
    53-bit uniforms ``u1`` in (0, 1] and ``u2`` in [0, 1), and Box-Muller
    (Box & Muller, 1958) turns them into slots ``2p = r cos(2 pi u2)`` and
    ``2p + 1 = r sin(2 pi u2)`` of realization ``i``, with
    ``r = sqrt(-2 ln u1)``; an odd ``n_slots`` drops the last sine. The
    cosine and sine come from ``t = tan(pi u2)`` as ``(1 - t**2) / (1 + t**2)``
    and ``2 t / (1 + t**2)``, within a few ulps of numpy's ``cos`` and
    ``sin``, so the bytes depend on numpy's ``log`` and ``tan`` (whose SIMD
    code numpy picks for each CPU), not on its ``cos`` or ``sin``.

    A kernel computes a block slot-major in buffers of its own, with no
    temporaries that grow with the block. This wrapper reads all pairs of
    one block through its transposed view; :func:`run_simulation` reads the
    pairs of one variable group at a time, which gives the same bytes,
    since each normal depends on its counter alone.
    """
    return _NormalKernel(master_seed, n_slots, stop - start).fill(start, stop - start)[:n_slots].T


# ---------------------------------------------------------------------------
# Confidence intervals
# ---------------------------------------------------------------------------

def two_sided_z(level: float) -> float:
    """z such that P(|Z| <= z) = level for standard normal Z, from Wichura's
    AS241 (1988) as implemented by :meth:`statistics.NormalDist.inv_cdf`."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level {level} outside (0, 1)")
    # at or below 2**-53, (1 + level) / 2 rounds to 0.5, whose z of 0 no halfwidth divides by
    z = NormalDist().inv_cdf((1.0 + level) / 2.0)
    if z == 0.0:
        raise ValueError(f"confidence level {level} too small: its z rounds to 0")
    return z


def ci_to_sigma(halfwidth: float, level: float) -> float:
    """Standard deviation whose two-sided ``level`` interval has the given
    halfwidth: sigma = halfwidth / z."""
    if halfwidth < 0.0:
        raise ValueError("halfwidth must be >= 0")
    return halfwidth / two_sided_z(level)


def sigma_to_ci(sigma: float, level: float) -> float:
    """Inverse of :func:`ci_to_sigma`: halfwidth = sigma * z."""
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    return sigma * two_sided_z(level)


# ---------------------------------------------------------------------------
# Perturbation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Perturbation:
    """Normal perturbation of the driver variables: row ``k`` of the
    read-only (variable x year) arrays ``mean`` and ``sigma``, and the clamp
    interval ``[lower[k], upper[k]]`` of tail draws, belong to variable
    ``DRIVER_VARIABLES[k]``."""

    years: tuple[int, ...]
    mean: np.ndarray
    sigma: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        for name in ("mean", "sigma", "lower", "upper"):
            array = np.array(getattr(self, name), dtype=float)
            array.flags.writeable = False
            object.__setattr__(self, name, array)


def build_perturbations(table: DriverTable, config: SimulationConfig) -> Perturbation:
    """The perturbation of every driver variable of ``table``.

    A scalar halfwidth is a fraction of the per-year mean; an AnnualSeries
    halfwidth gives absolute per-year halfwidths. Either way sigma is the
    halfwidth divided by the two-sided normal quantile of ``ci_level``.
    """
    z = two_sided_z(config.ci_level)
    means = [table.column(name) for name in DRIVER_VARIABLES]
    sigmas = []
    for name, mean in zip(DRIVER_VARIABLES, means):
        if name not in config.halfwidths:
            raise ValueError(f"no halfwidth configured for {name}")
        spec = config.halfwidths[name]
        if isinstance(spec, AnnualSeries):
            try:
                halfwidths = [spec.value_at(y) for y in table.years]
            except KeyError as exc:
                raise ValueError(f"halfwidth series for {name} missing {exc}") from None
        else:
            # Python floats: an overflow gives inf without a numpy warning
            halfwidths = [spec * m for m in mean]
        sigmas.append([hw / z for hw in halfwidths])
        widest = max(sigmas[-1])
        limit = 1.0 if name in FRACTION_VARIABLES else np.finfo(float).max
        if widest > limit:
            raise ValueError(f"{name} halfwidth gives sigma {widest:.6g} > {limit:g}")
    upper = [1.0 if name in FRACTION_VARIABLES else math.inf for name in DRIVER_VARIABLES]
    return Perturbation(table.years, means, sigmas, [0.0] * len(DRIVER_VARIABLES), upper)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleResult:
    """Realizations x years matrix of Mt CO2 with its provenance."""

    matrix: np.ndarray
    years: tuple[int, ...]
    config: SimulationConfig
    clamped_draws: int
    clamped_predictions: int

    def __post_init__(self):
        if self.matrix.shape != (self.config.realizations, len(self.years)):
            raise ValueError("matrix shape does not match realizations x years")
        # the whole matrix's min and max, which a nan reaches, are as quick in
        # either layout; each year's, only to name the first bad year
        if self.matrix.size and not (self.matrix.min() >= 0.0 and self.matrix.max() < np.inf):
            extremes = np.stack((self.matrix.min(axis=0), self.matrix.max(axis=0)), axis=1)
            _check_emissions(extremes, [f"year {year}" for year in self.years])

    def to_csv_text(self) -> str:
        """The matrix CSV: a header of years, then one row per realization,
        each cell its value's ``repr``, the shortest decimal that reads back
        as the same double (see :func:`emisim.matrix.matrix_csv_text`)."""
        return matrix_csv_text(self.years, self.matrix)


def run_simulation(
    table: DriverTable,
    config: SimulationConfig,
    model: EmissionModel | None = None,
    workers: int = 1,
) -> EnsembleResult:
    """Evaluate the full ensemble: ``mean + z * sigma`` per driver variable,
    clamped to the variable bounds, then one ``predict_grid`` call.

    The result is a pure function of ``(table, config)``: each row depends
    only on its own realization index (see :func:`standard_normals`), so a
    larger ensemble keeps the rows of a smaller one. The draws are made in
    blocks of rows, only for the variables the model reads (``READ_VARIABLES``
    of its kind), and ``predict_grid`` gets ``None`` for the others. For each
    block, the kernel computes the slots of one group of variables (all of
    them per-variable; one, or two for an odd year count, per-year)
    slot-major into one buffer of its own, and one broadcast multiply by
    sigma writes them into the driver arrays, which are then shifted and
    clamped in place. A block has ``_BLOCK_ELEMS // max(2 * pairs, years)``
    rows for the Box-Muller pairs of the largest group, which every loop
    over a block runs long: 4096 for the bundled table in both modes, 2184
    per-year for its first 15 years. Each slot's smallest and largest normal
    tell whether a block holds a draw out of bounds, and ``clamped_draws``
    counts those draws. The model writes its output over the first driver
    array it reads, passed as ``predict_grid``'s sixth positional parameter
    ``out`` so that a wrapper forwarding ``*args`` keeps it; that array is
    the result matrix. Besides
    the driver arrays, only the kernel's two block-sized buffers are held,
    and they are freed before the predict. ``workers`` is kept for
    compatibility; neither the output nor the speed depends on it.
    """
    if model is None:
        model = fit_model(table, config.model_kind)
    perturbation = build_perturbations(table, config)
    n_vars, n_years = perturbation.mean.shape
    per_year = config.correlation_mode is CorrelationMode.INDEPENDENT_PER_YEAR
    n_slots = n_vars * (n_years if per_year else 1)
    n = config.realizations
    # the model reads the variables from `skip` on; the ones before it change
    # no output, so they are neither drawn nor held in a plane
    skip = n_vars - len(READ_VARIABLES[model.kind])
    # each driver is a column-major (realizations x years) view of a
    # (year, realization) plane, which keeps numpy's inner loops long when z
    # has one column. Two allocations: the first plane the model reads, which
    # the model overwrites with its output, and a block of the others
    planes = (np.empty((n_years, n)), *np.empty((n_vars - skip - 1, n_years, n)))
    # the kernel fills the slots of one group of variables [a, b) at a time,
    # pairs [floor(a w / 2), ceil(b w / 2)) for w slots per variable. Per-year,
    # a group also starts at each variable whose first slot is even, so each
    # loop runs a block of rows long and no pair is in two groups
    width = n_slots // n_vars
    bounds = (skip, *(k for k in range(skip + 1, n_vars) if per_year and not k * width % 2), n_vars)
    groups = [(a, b, a * width // 2, -(-b * width // 2)) for a, b in zip(bounds, bounds[1:])]
    pairs = max(p1 - p0 for _, _, p0, p1 in groups)
    step = max(1, _BLOCK_ELEMS // max(2 * pairs, n_years))
    kernel = _NormalKernel(config.master_seed, n_slots, min(step, n), pairs)
    sigma, mean = perturbation.sigma[:, :, None], perturbation.mean[:, :, None]
    lower, upper = perturbation.lower[:, None, None], perturbation.upper[:, None, None]
    clamped = 0
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        for a, b, p0, p1 in groups:
            # per-year mode has one slot per (variable, year), per-variable
            # mode one per variable, which the multiply broadcasts over the years
            s = a * width - 2 * p0
            z = kernel.fill(lo, hi - lo, p0, p1)[s:s + (b - a) * width].reshape(b - a, -1, hi - lo)
            for k in range(a, b):
                raw = planes[k - skip][:, lo:hi]
                np.multiply(z[k - a], sigma[k], out=raw)
                raw += mean[k]
            # sigma >= 0 is finite and rounding is monotone, so each slot's
            # extreme normals give its draws' exact extremes, overflow included
            low = z.min(axis=2, keepdims=True) * sigma[a:b] + mean[a:b]
            high = z.max(axis=2, keepdims=True) * sigma[a:b] + mean[a:b]
            outside = ((low < lower[a:b]) | (high > upper[a:b])).any(axis=(1, 2))
            for k in np.flatnonzero(outside) + a:
                draws = planes[k - skip][:, lo:hi]
                clamped += int(np.count_nonzero(draws < lower[k]))
                clamped += int(np.count_nonzero(draws > upper[k]))
                np.clip(draws, lower[k], upper[k], out=draws)
    del kernel, z  # freed before the predict's temporaries add to the peak
    drivers = [plane.T for plane in planes]
    matrix = model.predict_grid(perturbation.years, *[None] * skip, *drivers, drivers[0])
    # the other planes are freed before EnsembleResult's checks add their
    # temporaries to the peak; `raw` and `draws` may be views of them
    planes = drivers = raw = draws = None
    pred_clamped = (
        int(np.count_nonzero(matrix == 0.0)) if model.kind is ModelKind.LINEAR_REGRESSION else 0
    )
    return EnsembleResult(matrix, table.years, config, clamped, pred_clamped)


# ---------------------------------------------------------------------------
# Percentiles and bands
# ---------------------------------------------------------------------------

def _check_emissions(sorted_rows: np.ndarray, names: Sequence[str]) -> None:
    """Raise ValueError, naming the first bad row by ``names``, unless every
    value of each row of ``sorted_rows`` (sorted, or its min and max) is
    finite and at least 0; the ends tell, since NaN sorts last and -inf first.
    A non-finite value is reported before a negative one."""
    low, high = sorted_rows[:, 0], sorted_rows[:, -1]
    for fault, bad in (("non-finite", ~(np.isfinite(low) & np.isfinite(high))),
                       ("negative", low < 0.0)):
        if bad.any():
            raise ValueError(f"{fault} emission values in {names[bad.argmax()]}")


def _order_statistics(sorted_rows: np.ndarray, percentiles) -> np.ndarray:
    """Percentiles of each row of ``sorted_rows`` (sorted along its last
    axis; every value finite and >= 0, so no step overflows), shape
    ``(rows, len(percentiles))``: with rank ``r = p / 100 * (n - 1)``, the
    value at ``floor(r)`` plus ``r - floor(r)`` times the step to the next
    order statistic."""
    n = sorted_rows.shape[-1]
    ranks = np.asarray(percentiles, dtype=float) / 100.0 * (n - 1)
    lo = np.floor(ranks).astype(np.intp)
    frac = ranks - lo
    below = sorted_rows[:, lo]
    above = sorted_rows[:, np.minimum(lo + 1, n - 1)]
    return below + frac * (above - below)


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile of ``values``, finite and >= 0, for p in (0, 100)."""
    if len(values) == 0:
        raise ValueError("percentile of empty list")
    ranked = np.sort(np.asarray(values, dtype=float))[None, :]
    _check_emissions(ranked, ("the list",))
    return float(_order_statistics(ranked, validate_percentiles((p,)))[0, 0])


@dataclass(frozen=True)
class PercentileBands:
    """Per-year percentile levels plus the ensemble mean."""

    years: tuple[int, ...]
    percentiles: tuple[float, ...]
    levels: np.ndarray  # (n_years, n_percentiles)
    mean: np.ndarray    # (n_years,)

    def __post_init__(self):
        if np.any(self.levels[:, 1:] < self.levels[:, :-1]):  # inf - inf would warn
            raise ValueError("band values must be non-decreasing in percentile")

    def value(self, year: int, p: float) -> float:
        return float(self.levels[self.years.index(year), self.percentiles.index(p)])

    def mean_at(self, year: int) -> float:
        return float(self.mean[self.years.index(year)])

    def to_csv_text(self) -> str:
        # repr reads back as the percentile, so distinct ones get distinct labels
        header = ["year", "mean"] + [f"p{p!r}".removesuffix(".0") for p in self.percentiles]
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
    """Percentile bands and mean of each column of a (realizations x years)
    matrix, one of ``years`` per column. Percentiles outside (0, 100) or not
    strictly increasing, and a value not finite or below 0, raise ValueError
    (which names the value's year); a mean that overflows OverflowError."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        raise ValueError("cannot take percentiles of an empty ensemble")
    percentiles = validate_percentiles(percentiles)
    years = tuple(years)
    if len(years) != matrix.shape[1]:
        raise ValueError(f"{len(years)} years for {matrix.shape[1]} matrix columns")
    # one C-contiguous row per year, whatever the input layout: numpy sums a
    # row pairwise only along contiguous memory, so the means stay bit-exact
    columns = np.array(matrix.T, order="C")
    columns.sort(axis=1)
    _check_emissions(columns, [f"year {year}" for year in years])
    levels = _order_statistics(columns, percentiles)
    with np.errstate(over="ignore"):  # an overflow is raised below, by year
        # constant columns keep the degenerate (sigma = 0) collapse bit-exact
        means = np.where(columns[:, 0] == columns[:, -1], columns[:, 0], columns.mean(axis=1))
    overflowed = np.isinf(means)
    if overflowed.any():
        raise OverflowError(f"ensemble mean overflows in year {years[overflowed.argmax()]}")
    return PercentileBands(years, percentiles, levels, means)


def bands(result: EnsembleResult, percentiles: Sequence[float] | None = None) -> PercentileBands:
    """Column-wise percentile bands (plus mean) of an ensemble."""
    if percentiles is None:
        percentiles = result.config.percentiles
    return bands_from_matrix(result.matrix, result.years, percentiles)
