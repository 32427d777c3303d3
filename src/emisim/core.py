"""Domain types and scenario algebra.

Everything here is an immutable value object: annual series, scenario
trajectories, the driver table, and the simulation configuration, plus the
three operations shared by the rest of the package (mean scenario, scenario
alignment, driver-table validation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    DisjointYearRangesError,
    EmptyInputError,
    FractionOutOfRangeError,
    GapInYearsError,
    NonPositiveValueError,
    UnitMismatchError,
    UnknownScenarioNameError,
)


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


class AlignmentGroup(str, Enum):
    SURGE = "SurgeGroup"
    ARCHIPELAGOS = "ArchipelagosGroup"
    HORIZON = "HorizonGroup"
    BASELINE_CRISIS = "BaselineCrisisGroup"


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


@dataclass(frozen=True)
class AnnualSeries:
    """Ordered map year -> value with a declared unit.

    Years must be strictly increasing (and gap-free when ``contiguous`` is
    set). Values must be finite, non-negative for energy/mass units, and
    inside [0, 1] for fractions.
    """

    unit: Unit
    points: tuple[tuple[int, float], ...]
    contiguous: bool = False

    def __post_init__(self):
        object.__setattr__(
            self,
            "points",
            tuple((int(y), float(v)) for y, v in self.points),
        )
        prev = None
        for year, value in self.points:
            if prev is not None:
                if year <= prev:
                    raise ValueError(f"years not strictly increasing at {year}")
                if self.contiguous and year != prev + 1:
                    raise ValueError(f"gap between {prev} and {year}")
            prev = year
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


@dataclass(frozen=True)
class ScenarioTrajectory:
    """A named annual trajectory with its family and alignment group.

    ``alignment`` is None until :func:`align_scenarios` annotates it.
    """

    name: str
    family: ScenarioFamily
    series: AnnualSeries
    alignment: AlignmentGroup | None = None
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
    """Per-year driver tuples plus observed CO2.

    Construction does not validate; run :func:`validate_driver_table` to get
    a full report of any violated rows.
    """

    rows: tuple[DriverRow, ...]

    @classmethod
    def from_rows(cls, rows: Iterable[DriverRow]) -> "DriverTable":
        return cls(tuple(rows))

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(r.year for r in self.rows)

    def column(self, name: str) -> tuple[float, ...]:
        return tuple(getattr(r, name) for r in self.rows)

    def column_series(self, name: str) -> AnnualSeries:
        unit = Unit.FRACTION if name in FRACTION_VARIABLES else (
            Unit.MT_CO2 if name == "co2_mt" else Unit.TWH
        )
        return AnnualSeries(unit, tuple((r.year, getattr(r, name)) for r in self.rows), contiguous=True)

    def __len__(self) -> int:
        return len(self.rows)


HalfwidthSpec = Union[float, AnnualSeries]

#: Documented default: +/-10% of the per-year mean for every driver variable.
#: The underlying study does not publish its per-variable halfwidths, so this
#: is an explicit artifact choice for the bundled reproduction.
DEFAULT_HALFWIDTH_FRACTION = 0.10


def _halfwidth_to_dict(spec: HalfwidthSpec):
    if isinstance(spec, AnnualSeries):
        return {"unit": spec.unit.value, "points": [list(p) for p in spec.points]}
    return float(spec)


def _halfwidth_from_dict(spec) -> HalfwidthSpec:
    if isinstance(spec, Mapping):
        return AnnualSeries(Unit(spec.get("unit", Unit.TWH.value)), tuple(spec["points"]))
    return float(spec)


def converted(key: str, convert, value):
    """``convert(value)``; any failure is raised as a ValueError naming ``key``."""
    try:
        return convert(value)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"{key}: {type(exc).__name__}: {exc}") from None


def validate_percentiles(percentiles) -> tuple[float, ...]:
    """``percentiles`` as floats; each must lie in (0, 100), strictly
    increasing, or ValueError is raised."""
    if isinstance(percentiles, str):
        raise ValueError(f"expected a list of percentiles, got the string {percentiles!r}")
    percentiles = tuple(float(p) for p in percentiles)
    for p in percentiles:
        if not 0.0 < p < 100.0:
            raise ValueError(f"percentile {p} outside (0, 100)")
    if any(a >= b for a, b in zip(percentiles, percentiles[1:])):
        raise ValueError("percentiles must be strictly increasing")
    return percentiles


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs for the Monte Carlo ensemble.

    ``halfwidths`` maps each driver variable to either a scalar (fraction of
    the per-year mean) or an :class:`AnnualSeries` of absolute halfwidths.
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
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must be in [0, 2**64), got {self.master_seed}")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must be in (0, 1)")
        object.__setattr__(self, "percentiles", validate_percentiles(self.percentiles))
        for name, spec in self.halfwidths.items():
            if name not in DRIVER_VARIABLES:
                raise ValueError(f"unknown driver variable {name!r}")
            if isinstance(spec, (int, float)) and not (math.isfinite(spec) and spec >= 0):
                raise ValueError(f"halfwidth fraction for {name} must be finite and >= 0, got {spec}")

    @classmethod
    def from_dict(cls, doc: Mapping) -> "SimulationConfig":
        """Inverse of :meth:`to_dict`. Absent keys keep their defaults, and a
        halfwidth series may leave out its unit (TWh). Unknown keys, a
        ``realizations`` or ``master_seed`` that is not an integer, and any
        other malformed value raise ValueError."""
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown key(s) {', '.join(map(repr, unknown))}")
        for key in ("realizations", "master_seed"):
            if key in doc and type(doc[key]) is not int:
                raise ValueError(f"{key} must be an integer, got {doc[key]!r}")
        convert = {
            "ci_level": float,
            "halfwidths": lambda hw: {k: converted(k, _halfwidth_from_dict, v) for k, v in hw.items()},
            "correlation_mode": CorrelationMode,
            "percentiles": validate_percentiles,
            "model_kind": ModelKind,
        }
        return cls(**{k: converted(k, convert.get(k, lambda x: x), v) for k, v in doc.items()})

    def to_dict(self) -> dict:
        """JSON-ready snapshot (used by run manifests)."""
        return {
            "realizations": self.realizations,
            "master_seed": self.master_seed,
            "ci_level": self.ci_level,
            "halfwidths": {name: _halfwidth_to_dict(spec) for name, spec in self.halfwidths.items()},
            "correlation_mode": self.correlation_mode.value,
            "percentiles": list(self.percentiles),
            "model_kind": self.model_kind.value,
        }


# ---------------------------------------------------------------------------
# Scenario alignment
# ---------------------------------------------------------------------------

#: Fixed mapping from scenario name to (family, alignment group). This is
#: data, not configuration: the pairing of the Shell scenarios, the IEA
#: sensitivity cases and the AI-consumption scenarios is a fixed editorial
#: choice reproduced here verbatim.
SCENARIO_ALIGNMENT: dict[str, tuple[ScenarioFamily, AlignmentGroup]] = {
    "Surge": (ScenarioFamily.SHELL, AlignmentGroup.SURGE),
    "Lift-Off": (ScenarioFamily.IEA, AlignmentGroup.SURGE),
    "Abundance Without Boundaries": (ScenarioFamily.AI_STUDY, AlignmentGroup.SURGE),
    "Archipelagos": (ScenarioFamily.SHELL, AlignmentGroup.ARCHIPELAGOS),
    "Headwinds": (ScenarioFamily.IEA, AlignmentGroup.ARCHIPELAGOS),
    "Limits To Growth": (ScenarioFamily.AI_STUDY, AlignmentGroup.ARCHIPELAGOS),
    "Horizon": (ScenarioFamily.SHELL, AlignmentGroup.HORIZON),
    "High Efficiency": (ScenarioFamily.IEA, AlignmentGroup.HORIZON),
    "Sustainable AI": (ScenarioFamily.AI_STUDY, AlignmentGroup.HORIZON),
    "Baseline": (ScenarioFamily.IEA, AlignmentGroup.BASELINE_CRISIS),
    "Energy Crisis": (ScenarioFamily.AI_STUDY, AlignmentGroup.BASELINE_CRISIS),
}

_NAME_ALIASES = {"abundance": "Abundance Without Boundaries"}


def _normalize_name(name: str) -> str:
    key = " ".join(name.replace("-", " ").replace("_", " ").split()).lower()
    if key.endswith(" case"):
        key = key[: -len(" case")]
    return key


_CANONICAL_BY_KEY = {_normalize_name(n): n for n in SCENARIO_ALIGNMENT}
_CANONICAL_BY_KEY.update({k: v for k, v in _NAME_ALIASES.items()})


def canonical_scenario_name(name: str) -> str:
    """Resolve spelling variants ("Lift-Off Case", "lift off") to the
    canonical scenario name, or raise :class:`UnknownScenarioNameError`."""
    key = _normalize_name(name)
    if key not in _CANONICAL_BY_KEY:
        raise UnknownScenarioNameError(name)
    return _CANONICAL_BY_KEY[key]


def alignment_for(name: str) -> AlignmentGroup:
    return SCENARIO_ALIGNMENT[canonical_scenario_name(name)][1]


def align_scenarios(bundle: Sequence[ScenarioTrajectory]) -> list[ScenarioTrajectory]:
    """Annotate every trajectory with its alignment group.

    Idempotent: already-aligned trajectories come back unchanged. All unknown
    names are collected and reported together.
    """
    unknown = []
    aligned = []
    for traj in bundle:
        try:
            group = alignment_for(traj.name)
        except UnknownScenarioNameError:
            unknown.append(traj.name)
            continue
        if traj.alignment is group:
            aligned.append(traj)
        else:
            aligned.append(
                ScenarioTrajectory(traj.name, traj.family, traj.series, group, traj.provenance)
            )
    if unknown:
        raise UnknownScenarioNameError(unknown)
    return aligned


# ---------------------------------------------------------------------------
# Mean scenario
# ---------------------------------------------------------------------------

def mean_series(series: Sequence[AnnualSeries]) -> AnnualSeries:
    """Pointwise arithmetic mean over the intersection of years."""
    if not series:
        raise EmptyInputError("no series to average")
    unit = series[0].unit
    for s in series[1:]:
        if s.unit is not unit:
            raise UnitMismatchError(f"cannot average {unit.value} with {s.unit.value}")
    common = set(series[0].years)
    for s in series[1:]:
        common &= set(s.years)
    if not common:
        raise DisjointYearRangesError("input series share no common year")
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


def mean_scenario(trajectories: Sequence[ScenarioTrajectory]) -> AnnualSeries:
    """Mean trajectory of a scenario bundle over their common year window."""
    if not trajectories:
        raise EmptyInputError("no trajectories to average")
    return mean_series([t.series for t in trajectories])


# ---------------------------------------------------------------------------
# Driver-table validation
# ---------------------------------------------------------------------------

def validate_driver_table(table: DriverTable) -> DriverTable:
    """Return ``table`` iff every invariant holds.

    Collects all violations before raising, so one error report covers every
    bad row. The raised class matches the first violation encountered in row
    order.
    """
    violations: list[tuple[type, str]] = []
    prev_year = None
    for row in table.rows:
        if prev_year is not None and row.year != prev_year + 1:
            violations.append(
                (GapInYearsError, f"year {row.year}: expected {prev_year + 1} after {prev_year}")
            )
        prev_year = row.year
        for name in ("semis_twh", "dc_twh", "co2_mt"):
            value = getattr(row, name)
            if not math.isfinite(value) or value <= 0.0:
                violations.append(
                    (NonPositiveValueError, f"year {row.year}: {name} = {value} must be > 0")
                )
        if not math.isfinite(row.mix_factor) or not 0.0 < row.mix_factor <= 1.0:
            violations.append(
                (FractionOutOfRangeError, f"year {row.year}: mix_factor = {row.mix_factor} outside (0, 1]")
            )
        if not math.isfinite(row.ai_share) or not 0.0 <= row.ai_share <= 1.0:
            violations.append(
                (FractionOutOfRangeError, f"year {row.year}: ai_share = {row.ai_share} outside [0, 1]")
            )
    if violations:
        error_cls = violations[0][0]
        raise error_cls(
            f"driver table has {len(violations)} violation(s)",
            [msg for _, msg in violations],
        )
    return table
