"""Domain types and scenario algebra.

Everything here is an immutable value object, validated on construction:
annual series, scenario trajectories, the driver table, and the simulation
configuration, plus the two operations shared by the rest of the package
(mean scenario, driver-table validation).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Iterable, Mapping, Sequence, Union

from .errors import DriverTableError


class Unit(str, Enum):
    TWH = "TWh"
    MT_CO2 = "MtCO2"
    FRACTION = "fraction"
    WH = "Wh"
    # carbon intensity; carried by fitted-model coefficient series only
    MT_PER_TWH = "MtPerTWh"


class ScenarioFamily(str, Enum):
    SHELL = "Shell"
    IEA = "IEA"
    AI_STUDY = "AIStudy"


class CorrelationMode(str, Enum):
    CORRELATED_PER_VARIABLE = "per-variable"
    INDEPENDENT_PER_YEAR = "per-year"


class ModelKind(str, Enum):
    IMPLIED_INTENSITY = "implied_intensity"
    LINEAR_REGRESSION = "linear_regression"


#: Driver-table columns that get perturbed, in canonical sampling order.
DRIVER_VARIABLES = ("semis_twh", "dc_twh", "mix_factor", "ai_share")

#: Variables whose values are fractions clamped to [0, 1]; the TWh columns
#: are clamped to [0, inf).
FRACTION_VARIABLES = ("mix_factor", "ai_share")


def as_number(value) -> float:
    """``value``, a real number (numpy scalars included), as a float. A
    string or a bool raises ValueError, so that a JSON ``"2020"`` or
    ``true`` is not read as a number; any other type raises TypeError."""
    if isinstance(value, str):
        raise ValueError(f"could not convert string to float: {value!r}; expected a number")
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    if not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    return float(value)


def as_year(value) -> int:
    """``value`` as a year: an integer, or a number without a fractional
    part. A bool, or a number with a fractional part, raises ValueError."""
    number = as_number(value)
    if not number.is_integer():
        raise ValueError(f"year {value!r} is not an integer")
    return int(value) if isinstance(value, int) else int(number)


@dataclass(frozen=True)
class AnnualSeries:
    """Ordered map year -> value with a declared unit.

    Years must be strictly increasing. Values must be finite, non-negative
    for energy/mass units, and inside [0, 1] for fractions.
    """

    unit: Unit
    points: tuple[tuple[int, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "points",
            tuple((as_year(y), as_number(v)) for y, v in self.points),
        )
        for i, (year, value) in enumerate(self.points):
            if i and year <= self.points[i - 1][0]:
                raise ValueError(f"years not strictly increasing at {year}")
            if not math.isfinite(value):
                raise ValueError(f"non-finite value at year {year}")
            if self.unit is Unit.FRACTION:
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"fraction {value} outside [0, 1] at year {year}")
            elif value < 0.0:
                raise ValueError(f"negative {self.unit.value} value at year {year}")

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(y for y, _ in self.points)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.points)

    def value_at(self, year: int) -> float:
        for y, v in self.points:
            if y == year:
                return v
        raise KeyError(f"year {year} not in series")

    def __len__(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        """The series JSON form, ``{"unit": ..., "points": [[year, value], ...]}``."""
        return {"unit": self.unit.value, "points": [list(p) for p in self.points]}

    @classmethod
    def from_json(cls, doc: Mapping, unit: Unit | None = None) -> "AnnualSeries":
        """Inverse of :meth:`to_json`; a form without its unit takes ``unit``."""
        unit, points = doc.get("unit", unit), doc["points"]
        if unit is None:
            raise ValueError("series has no unit")
        return cls(Unit(unit), tuple(points))


@dataclass(frozen=True)
class ScenarioTrajectory:
    """A named annual trajectory with its family and provenance."""

    name: str
    family: ScenarioFamily
    series: AnnualSeries
    provenance: str = ""


@dataclass(frozen=True)
class DriverRow:
    year: int
    semis_twh: float
    dc_twh: float
    mix_factor: float
    ai_share: float
    co2_mt: float


@dataclass(frozen=True)
class DriverTable:
    """Per-year driver tuples plus observed CO2; construction validates them
    with :func:`validate_driver_table`, which reports every violated row."""

    rows: tuple[DriverRow, ...]

    def __post_init__(self):
        validate_driver_table(self)

    @classmethod
    def from_rows(cls, rows: Iterable[DriverRow]) -> "DriverTable":
        return cls(tuple(rows))

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(r.year for r in self.rows)

    def column(self, name: str) -> tuple[float, ...]:
        return tuple(getattr(r, name) for r in self.rows)

    def __len__(self) -> int:
        return len(self.rows)


HalfwidthSpec = Union[float, AnnualSeries]

#: Documented default: +/-10% of the per-year mean for every driver variable.
#: The underlying study does not publish its per-variable halfwidths, so this
#: is an explicit artifact choice for the bundled reproduction.
DEFAULT_HALFWIDTH_FRACTION = 0.10


def converted(key: str, convert, value):
    """``convert(value)``; any failure is raised as a ValueError naming ``key``."""
    try:
        return convert(value)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None
    except (AttributeError, KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"{key}: {type(exc).__name__}: {exc}") from None


def _halfwidth(spec) -> HalfwidthSpec:
    """A series, from its JSON form in TWh by default, or a fraction as a float."""
    if isinstance(spec, AnnualSeries):
        return spec
    return AnnualSeries.from_json(spec, Unit.TWH) if isinstance(spec, Mapping) else as_number(spec)


def _halfwidths(halfwidths: Mapping) -> dict[str, HalfwidthSpec]:
    """``halfwidths`` with each spec read by :func:`_halfwidth`, and each
    fraction checked finite and >= 0."""
    checked = {name: converted(name, _halfwidth, spec) for name, spec in halfwidths.items()}
    for name, spec in checked.items():
        if name not in DRIVER_VARIABLES:
            raise ValueError(f"unknown driver variable {name!r}")
        if not (isinstance(spec, AnnualSeries) or math.isfinite(spec) and spec >= 0):
            raise ValueError(f"halfwidth fraction for {name} must be finite and >= 0, got {spec}")
    return checked


def validate_percentiles(percentiles) -> tuple[float, ...]:
    """``percentiles`` as floats; each must lie in (0, 100), strictly
    increasing, or ValueError is raised."""
    if isinstance(percentiles, str):
        raise ValueError(f"expected a list of percentiles, got the string {percentiles!r}")
    percentiles = tuple(as_number(p) for p in percentiles)
    for p in percentiles:
        if not 0.0 < p < 100.0:
            raise ValueError(f"percentile {p} outside (0, 100)")
    if any(a >= b for a, b in zip(percentiles, percentiles[1:])):
        raise ValueError("percentiles must be strictly increasing")
    return percentiles


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs for the Monte Carlo ensemble, each checked and converted once, here.

    ``halfwidths`` maps each driver variable to either a scalar (fraction of
    the per-year mean) or an :class:`AnnualSeries` of absolute halfwidths,
    which may come in its JSON form and then defaults to TWh.
    """

    realizations: int = 10_000
    master_seed: int = 0
    ci_level: float = 0.99
    halfwidths: Mapping[str, HalfwidthSpec] = field(
        default_factory=lambda: dict.fromkeys(DRIVER_VARIABLES, DEFAULT_HALFWIDTH_FRACTION)
    )
    correlation_mode: CorrelationMode = CorrelationMode.CORRELATED_PER_VARIABLE
    percentiles: tuple[float, ...] = (5.0, 50.0, 95.0)
    model_kind: ModelKind = ModelKind.IMPLIED_INTENSITY

    def __post_init__(self):
        for key in ("realizations", "master_seed"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            object.__setattr__(self, key, int(value))
        for key, convert in (
            ("ci_level", as_number),
            ("halfwidths", _halfwidths),
            ("correlation_mode", CorrelationMode),
            ("percentiles", validate_percentiles),
            ("model_kind", ModelKind),
        ):
            object.__setattr__(self, key, converted(key, convert, getattr(self, key)))
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must be in [0, 2**64), got {self.master_seed}")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must be in (0, 1)")

    @classmethod
    def from_dict(cls, doc: Mapping) -> "SimulationConfig":
        """Inverse of :meth:`to_dict`: absent keys keep their defaults, and an
        unknown key raises ValueError."""
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown key(s) {', '.join(map(repr, unknown))}")
        return cls(**doc)

    def to_dict(self) -> dict:
        """JSON-ready snapshot (used by run manifests)."""
        return {
            "realizations": self.realizations,
            "master_seed": self.master_seed,
            "ci_level": self.ci_level,
            "halfwidths": {name: spec.to_json() if isinstance(spec, AnnualSeries) else spec
                           for name, spec in self.halfwidths.items()},
            "correlation_mode": self.correlation_mode.value,
            "percentiles": list(self.percentiles),
            "model_kind": self.model_kind.value,
        }


# ---------------------------------------------------------------------------
# Mean scenario
# ---------------------------------------------------------------------------

def mean_scenario(trajectories: Sequence[ScenarioTrajectory]) -> AnnualSeries:
    """Pointwise arithmetic mean of the trajectories over the years they share."""
    if not trajectories:
        raise ValueError("no trajectories to average")
    series = [t.series for t in trajectories]
    unit = series[0].unit
    for s in series[1:]:
        if s.unit is not unit:
            raise ValueError(f"cannot average {unit.value} with {s.unit.value}")
    common = set(series[0].years)
    for s in series[1:]:
        common &= set(s.years)
    if not common:
        raise ValueError("input series share no common year")
    n = len(series)
    points = []
    for year in sorted(common):
        values = [s.value_at(year) for s in series]
        lo, hi = min(values), max(values)
        # fsum keeps the mean exact enough to be permutation invariant, and
        # the equal-values shortcut makes mean(k copies of S) == S bit-exact.
        mean = lo if lo == hi else math.fsum(values) / n
        points.append((year, mean))
    return AnnualSeries(unit, tuple(points))


# ---------------------------------------------------------------------------
# Driver-table validation
# ---------------------------------------------------------------------------

def validate_driver_table(table: DriverTable) -> DriverTable:
    """Return ``table`` iff every invariant holds.

    Collects all violations, in row order, before raising one
    :class:`DriverTableError`, so one error report covers every bad row.
    """
    violations: list[str] = []
    prev_year = None
    for row in table.rows:
        if prev_year is not None and row.year != prev_year + 1:
            violations.append(f"year {row.year}: expected {prev_year + 1} after {prev_year}")
        prev_year = row.year
        for name in ("semis_twh", "dc_twh", "co2_mt"):
            value = getattr(row, name)
            if not math.isfinite(value) or value <= 0.0:
                violations.append(f"year {row.year}: {name} = {value} must be > 0")
        if not math.isfinite(row.mix_factor) or not 0.0 < row.mix_factor <= 1.0:
            violations.append(f"year {row.year}: mix_factor = {row.mix_factor} outside (0, 1]")
        if not math.isfinite(row.ai_share) or not 0.0 <= row.ai_share <= 1.0:
            violations.append(f"year {row.year}: ai_share = {row.ai_share} outside [0, 1]")
    if violations:
        raise DriverTableError(f"driver table has {len(violations)} violation(s)", violations)
    return table
