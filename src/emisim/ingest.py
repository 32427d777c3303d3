"""Dataset parsing, bundled reference data, and side-calculation utilities.

File formats (UTF-8, decimal point, no thousands separators). A line ends
at LF and nowhere else (a file read by :func:`read_text` has its CR and CRLF
read as LF), and a line of whitespace only is blank. A CSV cell is the text
between two commas, or a comma and a line's end, with its whitespace edges
stripped; there is no quoting, so a ``"`` is an ordinary character:

* series CSV, which ``emisim mean`` writes: header ``year,value``
* driver CSV: header ``year,semis_twh,dc_twh,mix_factor,ai_share,co2_mt``
* inference-energy CSV: header ``task,energy_wh``, one row per task
* bundle JSON: ``{"trajectories": [{"name", "family", "unit", "points",
  "provenance"}, ...]}``

JSON files with the driver CSV's keys are accepted wherever it is, dispatched on
the ``.json`` extension; where a bundle is accepted too, a JSON object with a
``"trajectories"`` key is a bundle and any other document a driver table.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .core import (
    DRIVER_VARIABLES,
    AnnualSeries,
    DriverRow,
    DriverTable,
    ScenarioFamily,
    ScenarioTrajectory,
    Unit,
    as_number,
    as_year,
)
from .errors import NegativeInputError, SchemaError, UnknownTaskError

DRIVER_HEADER = ("year", *DRIVER_VARIABLES, "co2_mt")
SERIES_HEADER = ("year", "value")

#: 100 Mt CO2 equals the annual energy-use emissions of ~13.5 million
#: American homes, i.e. 135 000 homes per Mt.
HOMES_PER_MT_CO2 = 13.5e6 / 100.0


def csv_text(header: Iterable[str], rows: Iterable[Iterable[str]]) -> str:
    """The CSV text of ``header`` and then of each row of ``rows``: the cells
    joined by commas, and every line, the last one included, ended by LF."""
    return "".join(f"{','.join(cells)}\n" for cells in chain((header,), rows))


# ---------------------------------------------------------------------------
# CSV / JSON parsing
# ---------------------------------------------------------------------------

def _plain_number(cell: str, convert):
    """``convert(cell)`` for ``int`` or ``float``. Both also read digit-group
    underscores and non-ASCII digits, which the formats exclude, so a cell
    with either raises ValueError here."""
    if not cell.isascii() or "_" in cell:
        raise ValueError(f"not a plain number: {cell!r}")
    return convert(cell)


def _parse_int(cell: str, line: int, column: int, what: str) -> int:
    try:
        return _plain_number(cell, int)
    except ValueError:
        raise SchemaError(line, column, f"{what} {cell!r} is not an integer") from None


def _parse_float(cell: str, line: int, column: int, what: str) -> float:
    try:
        value = _plain_number(cell, float)
    except ValueError:
        raise SchemaError(line, column, f"{what} {cell!r} is not a number") from None
    if not math.isfinite(value):
        raise SchemaError(line, column, f"{what} {cell!r} is not finite")
    return value


def _numbered_lines(text: str, first: int = 1) -> list[tuple[int, str]]:
    """``(file line, line)`` for each non-blank line of ``text``, whose first
    line is file line ``first``."""
    return [(n, line) for n, line in enumerate(text.split("\n"), first) if line.strip()]


def _cells(line: int, text: str, width: int) -> list[str]:
    """The ``width`` stripped cells of the line ``text``, file line ``line``;
    another cell count raises SchemaError."""
    cells = text.split(",")
    if len(cells) != width:
        raise SchemaError(line, len(cells), f"expected {width} cells, got {len(cells)}")
    return [cell.strip() for cell in cells]


def _check_header(line: int, row: Sequence[str], expected: Sequence[str]) -> None:
    got = [cell.strip() for cell in row]
    if got != list(expected):
        for i, (g, e) in enumerate(zip(got, expected), start=1):
            if g != e:
                raise SchemaError(line, i, f"expected header {e!r}, got {g!r}")
        raise SchemaError(line, len(expected), f"expected {len(expected)} columns, got {len(got)}")


def _data_rows(text: str, header: Sequence[str]):
    """Yield ``(file line, stripped cells)`` for each data row of the CSV
    ``text`` whose first non-blank line must be ``header``. Blank lines are
    skipped but counted, so the line numbers are the file's. A row with
    another cell count, or no data row at all, raises SchemaError."""
    rows = _numbered_lines(text)
    if not rows:
        raise SchemaError(1, 1, "no data rows")
    (header_line, first), rows = rows[0], rows[1:]
    _check_header(header_line, first.split(","), header)
    if not rows:
        raise SchemaError(header_line + 1, 1, "no data rows")
    for line, row in rows:
        yield line, _cells(line, row, len(header))


def parse_driver_csv_text(text: str) -> DriverTable:
    out = []
    for line, row in _data_rows(text, DRIVER_HEADER):
        year = _parse_int(row[0], line, 1, "year")
        values = [
            _parse_float(row[i], line, i + 1, DRIVER_HEADER[i])
            for i in range(1, len(DRIVER_HEADER))
        ]
        out.append(DriverRow(year, *values))
    return DriverTable.from_rows(out)


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
    """``convert`` applied to the JSON document in ``path``. JSON that is
    malformed or nested too deeply, and content that ``convert`` rejects,
    end as a one-line SchemaError; a file that cannot be read raises OSError."""
    text = read_text(path)
    try:
        return convert(json.loads(text))
    except json.JSONDecodeError as exc:
        raise SchemaError(exc.lineno, exc.colno, f"malformed JSON in {path}: {exc.msg}") from None
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise SchemaError(1, 1, f"bad content in {path}: {type(exc).__name__}: {exc}") from None


def _driver_table_from_json(doc) -> DriverTable:
    rows = doc["rows"] if isinstance(doc, Mapping) else doc
    out = []
    for i, row in enumerate(rows, start=1):
        missing = [k for k in DRIVER_HEADER if k not in row]
        if missing:
            raise SchemaError(i, 1, f"row missing key(s) {', '.join(missing)}")
        out.append(DriverRow(as_year(row["year"]), *(as_number(row[k]) for k in DRIVER_HEADER[1:])))
    if not out:
        raise SchemaError(1, 1, "no data rows")
    return DriverTable.from_rows(out)


def parse_driver_csv(path: str | Path) -> DriverTable:
    """Parse and validate a driver table from a CSV (or JSON) file."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        return read_json(path, _driver_table_from_json)
    return parse_driver_csv_text(read_text(path))


def parse_bundle_or_driver_table(path: str | Path) -> ScenarioBundle | DriverTable:
    """The scenario bundle or else the driver table in ``path``."""
    if Path(path).suffix.lower() != ".json":
        return parse_driver_csv(path)
    return read_json(path, lambda doc: bundle_from_dict(doc) if isinstance(doc, Mapping)
                     and "trajectories" in doc else _driver_table_from_json(doc))


def series_to_csv_text(series: AnnualSeries) -> str:
    return csv_text(SERIES_HEADER, ((str(y), repr(v)) for y, v in series.points))


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


def bundle_from_dict(doc: Mapping) -> ScenarioBundle:
    """The bundle of a bundle JSON document (see the module docstring)."""
    return ScenarioBundle(tuple(
        ScenarioTrajectory(entry["name"], ScenarioFamily(entry["family"]),
                           AnnualSeries.from_json(entry), provenance=entry.get("provenance", ""))
        for entry in doc["trajectories"]))


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
    wh = table.energy(_coerce_task(task)) * count
    if math.isinf(wh):
        raise OverflowError("inference energy overflows")
    return wh


def parse_inference_table_text(text: str) -> InferenceEnergyTable:
    energies = {
        _coerce_task(row[0]): _parse_float(row[1], line, 2, "energy_wh")
        for line, row in _data_rows(text, ("task", "energy_wh"))
    }
    return InferenceEnergyTable(energies)


# ---------------------------------------------------------------------------
# Growth projections and equivalences
# ---------------------------------------------------------------------------

def cagr_value(base: float, annual_rate: float, years: int) -> float:
    """``base`` compounded at ``annual_rate`` for ``years`` steps:
    base * (1 + rate)^years."""
    if not 0.0 < base < math.inf:
        raise ValueError(f"base must be finite and > 0, got {base}")
    if not -1.0 < annual_rate < math.inf:
        raise ValueError(f"rate must be finite and > -1, got {annual_rate}")
    if years < 0:
        raise ValueError("years must be >= 0")
    try:  # float arithmetic converts an int; one beyond the float range is inf
        steps = float(years)
    except OverflowError:
        steps = math.inf
    try:  # a float power that overflows raises instead of giving inf
        power = (1.0 + annual_rate) ** steps
    except OverflowError:
        power = math.inf
    try:  # an overflowing, subnormal or zero power loses what the product keeps
        value = (base * power if sys.float_info.min <= power < math.inf
                 else math.exp(math.log(base) + steps * math.log1p(annual_rate)))
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        # a count past 1e16 by its power of ten: an int of over 4300 digits
        # has no str, and far smaller ones make a line of hundreds of digits
        count = years if years < 10**16 else f"about 1e{math.log10(years):.0f}"
        raise OverflowError(f"projection overflows after {count} years")
    return value


def cagr_project(base: float, annual_rate: float, years: int, start_year: int = 0,
                 unit: Unit = Unit.TWH) -> AnnualSeries:
    """The :func:`cagr_value` of 0 to ``years`` steps, as a series indexed
    from ``start_year``."""
    if years < 0:
        raise ValueError("years must be >= 0")
    points = tuple((start_year + t, cagr_value(base, annual_rate, t)) for t in range(years + 1))
    return AnnualSeries(unit, points)


def doubling_project(base: float, doubling_months: float, horizon_months: float) -> float:
    """Exponential doubling: base * 2^(horizon / doubling)."""
    if not all(map(math.isfinite, (base, horizon_months))) or not 0.0 < doubling_months < math.inf:
        raise ValueError("base and horizon must be finite, and the doubling period finite and > 0")
    if base == 0.0:  # zero however many doublings, infinitely many included
        return base
    doublings = horizon_months / doubling_months
    try:  # a float power that overflows raises instead of giving inf
        power = 2.0 ** doublings
    except OverflowError:
        power = math.inf
    # an overflowing, subnormal or zero power loses what the product keeps;
    # infinitely many doublings have no floor
    try:
        value = (base * power if sys.float_info.min <= power < math.inf or math.isinf(doublings)
                 else math.ldexp(base * 2.0 ** (doublings % 1.0), math.floor(doublings)))
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise OverflowError("projection overflows")
    return value


def equivalent_homes(co2_mt: float) -> float:
    """American homes whose one-year energy-use emissions match ``co2_mt``."""
    if co2_mt < 0.0:
        raise NegativeInputError("emissions must be >= 0")
    if not math.isfinite(co2_mt):
        raise ValueError(f"emissions must be finite, got {co2_mt}")
    homes = co2_mt * HOMES_PER_MT_CO2 + 0.0  # -0.0 + 0.0 is +0.0
    if math.isinf(homes):
        raise OverflowError("equivalent homes overflow")
    return homes


# ---------------------------------------------------------------------------
# Bundled datasets
# ---------------------------------------------------------------------------

def bundled_data_text(name: str) -> str:
    """Raw text of a bundled dataset."""
    return (resources.files("emisim.data") / name).read_text(encoding="utf-8")


def bundled_driver_table() -> DriverTable:
    """The 16-row 2020-2035 driver table shipped with the package."""
    return parse_driver_csv_text(bundled_data_text("table2.csv"))


def bundled_ai_co2_bundle() -> ScenarioBundle:
    """Four AI-workload CO2 scenario trajectories, 2020-2035."""
    return bundle_from_dict(json.loads(bundled_data_text("ai_co2_scenarios.json")))


def bundled_inference_table() -> InferenceEnergyTable:
    return parse_inference_table_text(bundled_data_text("inference_energy.csv"))
