"""Dataset parsing, bundled reference data, and side-calculation utilities.

File formats (UTF-8, LF, decimal point, no thousands separators):

* series CSV: header ``year,value``
* driver CSV: header ``year,semis_twh,dc_twh,mix_factor,ai_share,co2_mt``
* bundle JSON: ``{"trajectories": [{"name", "family", "unit", "points",
  "provenance"}, ...]}``

JSON files with the same keys are accepted wherever a CSV is, dispatched on
the ``.json`` extension.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

from .core import (
    AnnualSeries,
    DriverRow,
    DriverTable,
    ScenarioFamily,
    ScenarioTrajectory,
    Unit,
    validate_driver_table,
)
from .errors import NegativeInputError, SchemaError, UnknownTaskError

DRIVER_HEADER = ("year", "semis_twh", "dc_twh", "mix_factor", "ai_share", "co2_mt")
SERIES_HEADER = ("year", "value")

#: 100 Mt CO2 equals the annual energy-use emissions of ~13.5 million
#: American homes, i.e. 135 000 homes per Mt.
HOMES_PER_MT_CO2 = 13.5e6 / 100.0


def _fmt(value: float) -> str:
    """Shortest exact decimal: integers without a point, floats via repr."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


# ---------------------------------------------------------------------------
# CSV / JSON parsing
# ---------------------------------------------------------------------------

def _parse_int(cell: str, line: int, column: int, what: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise SchemaError(line, column, f"{what} {cell!r} is not an integer") from None


def _parse_float(cell: str, line: int, column: int, what: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise SchemaError(line, column, f"{what} {cell!r} is not a number") from None
    if not math.isfinite(value):
        raise SchemaError(line, column, f"{what} {cell!r} is not finite")
    return value


def _check_header(row: Sequence[str], expected: Sequence[str]) -> None:
    got = [cell.strip() for cell in row]
    if got != list(expected):
        for i, (g, e) in enumerate(zip(got, expected), start=1):
            if g != e:
                raise SchemaError(1, i, f"expected header {e!r}, got {g!r}")
        raise SchemaError(1, len(expected), f"expected {len(expected)} columns, got {len(got)}")


def parse_driver_csv_text(text: str) -> DriverTable:
    reader = csv.reader(io.StringIO(text))
    rows = [r for r in reader if r]
    if not rows:
        raise SchemaError(1, 1, "no data rows")
    _check_header(rows[0], DRIVER_HEADER)
    if len(rows) == 1:
        raise SchemaError(2, 1, "no data rows")
    out = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(DRIVER_HEADER):
            raise SchemaError(line_no, len(row), f"expected {len(DRIVER_HEADER)} cells, got {len(row)}")
        year = _parse_int(row[0].strip(), line_no, 1, "year")
        values = [
            _parse_float(row[i].strip(), line_no, i + 1, DRIVER_HEADER[i])
            for i in range(1, len(DRIVER_HEADER))
        ]
        out.append(DriverRow(year, *values))
    return validate_driver_table(DriverTable.from_rows(out))


def parse_series_csv_text(text: str, unit: Unit) -> AnnualSeries:
    reader = csv.reader(io.StringIO(text))
    rows = [r for r in reader if r]
    if not rows:
        raise SchemaError(1, 1, "no data rows")
    _check_header(rows[0], SERIES_HEADER)
    if len(rows) == 1:
        raise SchemaError(2, 1, "no data rows")
    points = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise SchemaError(line_no, len(row), f"expected 2 cells, got {len(row)}")
        year = _parse_int(row[0].strip(), line_no, 1, "year")
        value = _parse_float(row[1].strip(), line_no, 2, "value")
        points.append((year, value))
    try:
        return AnnualSeries(unit, tuple(points))
    except ValueError as exc:
        raise SchemaError(2, 2, str(exc)) from None


def read_text(path: str | Path) -> str:
    """The text of the UTF-8 file ``path``. Bytes that are not UTF-8 end as a
    one-line SchemaError that points at the first of them; a file that
    cannot be read raises OSError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        head = exc.object[:exc.start]
        line = head.count(b"\n") + 1
        column = exc.start - head.rfind(b"\n")
        raise SchemaError(line, column, f"{path} is not UTF-8 text: {exc.reason}") from None


def read_json(path: str | Path, convert):
    """``convert`` applied to the JSON document in ``path``. Malformed JSON
    and content that ``convert`` rejects end as a one-line SchemaError; a
    file that cannot be read raises OSError."""
    text = read_text(path)
    try:
        return convert(json.loads(text))
    except json.JSONDecodeError as exc:
        raise SchemaError(exc.lineno, exc.colno, f"malformed JSON in {path}: {exc.msg}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(1, 1, f"bad content in {path}: {type(exc).__name__}: {exc}") from None


def _driver_table_from_json(doc) -> DriverTable:
    rows = doc["rows"] if isinstance(doc, Mapping) else doc
    out = []
    for i, row in enumerate(rows, start=1):
        missing = [k for k in DRIVER_HEADER if k not in row]
        if missing:
            raise SchemaError(i, 1, f"row missing key(s) {', '.join(missing)}")
        out.append(DriverRow(int(row["year"]), *(float(row[k]) for k in DRIVER_HEADER[1:])))
    if not out:
        raise SchemaError(1, 1, "no data rows")
    return validate_driver_table(DriverTable.from_rows(out))


def parse_driver_csv(path: str | Path) -> DriverTable:
    """Parse and validate a driver table from a CSV (or JSON) file."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        return read_json(path, _driver_table_from_json)
    return parse_driver_csv_text(read_text(path))


def parse_series_csv(path: str | Path, unit: Unit) -> AnnualSeries:
    """Parse an annual series from a CSV (or JSON ``[[year, value], ...]``)."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        return read_json(path, lambda doc: _series_from_json(doc, unit))
    return parse_series_csv_text(read_text(path), unit)


def _series_from_json(doc, unit: Unit) -> AnnualSeries:
    points = doc["points"] if isinstance(doc, Mapping) else doc
    if isinstance(doc, Mapping) and "unit" in doc:
        unit = Unit(doc["unit"])
    return AnnualSeries(unit, tuple((int(y), float(v)) for y, v in points))


def driver_table_to_csv_text(table: DriverTable) -> str:
    lines = [",".join(DRIVER_HEADER)]
    for r in table.rows:
        lines.append(
            ",".join(
                [str(r.year)]
                + [_fmt(getattr(r, k)) for k in DRIVER_HEADER[1:]]
            )
        )
    return "\n".join(lines) + "\n"


def series_to_csv_text(series: AnnualSeries) -> str:
    lines = [",".join(SERIES_HEADER)]
    for year, value in series.points:
        lines.append(f"{year},{_fmt(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Scenario bundles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioBundle:
    """Scenario trajectories with per-trajectory provenance."""

    trajectories: tuple[ScenarioTrajectory, ...]

    def __post_init__(self):
        seen = set()
        for t in self.trajectories:
            key = (t.name, t.family)
            if key in seen:
                raise ValueError(f"duplicate trajectory {key}")
            seen.add(key)

    def names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.trajectories)


def bundle_from_dict(doc: Mapping) -> ScenarioBundle:
    trajectories = []
    for entry in doc["trajectories"]:
        series = AnnualSeries(
            Unit(entry["unit"]),
            tuple((int(y), float(v)) for y, v in entry["points"]),
        )
        trajectories.append(
            ScenarioTrajectory(
                name=entry["name"],
                family=ScenarioFamily(entry["family"]),
                series=series,
                provenance=entry.get("provenance", ""),
            )
        )
    return ScenarioBundle(tuple(trajectories))


def bundle_to_dict(bundle: ScenarioBundle) -> dict:
    return {
        "trajectories": [
            {
                "name": t.name,
                "family": t.family.value,
                "unit": t.series.unit.value,
                "points": [[y, v] for y, v in t.series.points],
                "provenance": t.provenance,
            }
            for t in bundle.trajectories
        ]
    }


def bundle_to_json_text(bundle: ScenarioBundle) -> str:
    return json.dumps(bundle_to_dict(bundle), indent=2) + "\n"


def load_bundle(path: str | Path) -> ScenarioBundle:
    return read_json(path, bundle_from_dict)


# ---------------------------------------------------------------------------
# Inference-energy table
# ---------------------------------------------------------------------------

class InferenceTask(str, Enum):
    TEXT_CLASSIFICATION = "text_classification"
    TEXT_GENERATION = "text_generation"
    SUMMARIZATION = "summarization"
    OBJECT_DETECTION = "object_detection"
    IMAGE_CAPTIONING = "image_captioning"
    IMAGE_GENERATION = "image_generation"


@dataclass(frozen=True)
class InferenceEnergyTable:
    """Energy per task unit (Wh); must cover exactly the six known tasks."""

    energies: Mapping[InferenceTask, float]

    def __post_init__(self):
        tasks = set(self.energies)
        if tasks != set(InferenceTask):
            missing = {t.value for t in set(InferenceTask) - tasks}
            raise ValueError(f"table must cover all tasks; missing {sorted(missing)}")
        for task, wh in self.energies.items():
            if not wh > 0.0:
                raise ValueError(f"energy for {task.value} must be > 0")

    def energy(self, task: InferenceTask) -> float:
        return float(self.energies[task])


def _coerce_task(task) -> InferenceTask:
    if isinstance(task, InferenceTask):
        return task
    key = str(task).strip().lower().replace("-", "_").replace(" ", "_")
    try:
        return InferenceTask(key)
    except ValueError:
        raise UnknownTaskError(f"unknown task {task!r}") from None


def inference_energy(task, count: int, table: "InferenceEnergyTable | None" = None) -> float:
    """Wh consumed by ``count`` units of a task, per the bundled table."""
    if count < 0:
        raise NegativeInputError("count must be >= 0")
    if table is None:
        table = bundled_inference_table()
    return table.energy(_coerce_task(task)) * count


def inference_table_to_csv_text(table: InferenceEnergyTable) -> str:
    lines = ["task,energy_wh"]
    for task in InferenceTask:
        lines.append(f"{task.value},{_fmt(table.energy(task))}")
    return "\n".join(lines) + "\n"


def parse_inference_table_text(text: str) -> InferenceEnergyTable:
    reader = csv.reader(io.StringIO(text))
    rows = [r for r in reader if r]
    if not rows:
        raise SchemaError(1, 1, "no data rows")
    _check_header(rows[0], ("task", "energy_wh"))
    energies = {}
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise SchemaError(line_no, len(row), f"expected 2 cells, got {len(row)}")
        energies[_coerce_task(row[0].strip())] = _parse_float(row[1].strip(), line_no, 2, "energy_wh")
    return InferenceEnergyTable(energies)


# ---------------------------------------------------------------------------
# Growth projections and equivalences
# ---------------------------------------------------------------------------

def cagr_project(
    base: float,
    annual_rate: float,
    years: int,
    start_year: int = 0,
    unit: Unit = Unit.TWH,
) -> AnnualSeries:
    """Compound ``base`` at ``annual_rate`` for ``years`` steps.

    value(t) = base * (1 + rate)^t, returned as a series indexed from
    ``start_year``.
    """
    if base <= 0.0:
        raise ValueError("base must be > 0")
    if annual_rate <= -1.0:
        raise ValueError("rate must be > -1")
    if years < 0:
        raise ValueError("years must be >= 0")
    growth = 1.0 + annual_rate
    points = tuple((start_year + t, base * growth**t) for t in range(years + 1))
    return AnnualSeries(unit, points, contiguous=True)


def doubling_project(base: float, doubling_months: float, horizon_months: float) -> float:
    """Exponential doubling: base * 2^(horizon / doubling)."""
    if doubling_months <= 0.0:
        raise ValueError("doubling period must be > 0")
    return base * 2.0 ** (horizon_months / doubling_months)


def equivalent_homes(co2_mt: float) -> float:
    """American homes whose one-year energy-use emissions match ``co2_mt``."""
    if co2_mt < 0.0:
        raise NegativeInputError("emissions must be >= 0")
    return co2_mt * HOMES_PER_MT_CO2


# ---------------------------------------------------------------------------
# Bundled datasets
# ---------------------------------------------------------------------------

def _bundled_text(name: str) -> str:
    return (resources.files("emisim.data") / name).read_text(encoding="utf-8")


def bundled_driver_table() -> DriverTable:
    """The 16-row 2020-2035 driver table shipped with the package."""
    return parse_driver_csv_text(_bundled_text("table2.csv"))


def bundled_ai_co2_bundle() -> ScenarioBundle:
    """Four AI-workload CO2 scenario trajectories, 2020-2035."""
    return bundle_from_dict(json.loads(_bundled_text("ai_co2_scenarios.json")))


def bundled_inference_table() -> InferenceEnergyTable:
    return parse_inference_table_text(_bundled_text("inference_energy.csv"))


def bundled_data_text(name: str) -> str:
    """Raw text of a bundled dataset (used by round-trip checks)."""
    return _bundled_text(name)
