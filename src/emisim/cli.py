"""Command-line pipeline: validate, fit, project, simulate, and band export.

Exit codes: 0 success, 1 usage, 2 validation failure, 3 I/O failure,
4 numeric failure. All file writes are atomic (temp file + rename), so a
failing run never leaves partial outputs behind.

Configuration precedence for ``simulate``: command-line flags beat the
``--config`` JSON file, which beats built-in defaults. ``EMISIM_SEED`` in
the environment replaces the built-in default seed and is superseded by
``--seed`` (and by a seed in the config file).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    AnnualSeries,
    CorrelationMode,
    DriverTable,
    ModelKind,
    SimulationConfig,
    Unit,
    default_halfwidths,
    mean_scenario,
    validate_percentiles,
)
from .ensemble import RNG_STREAM, bands, bands_from_matrix, run_simulation
from .errors import EXIT_IO, EXIT_OK, EXIT_USAGE, EmisimError, EmptyInputError, SchemaError
from .ingest import (
    ScenarioBundle,
    bundled_inference_table,
    cagr_project,
    doubling_project,
    equivalent_homes,
    inference_energy,
    load_bundle,
    parse_driver_csv,
    read_json,
    read_text,
    series_to_csv_text,
)
from .model import fit_model, model_to_json, predict_table

_MODEL_NAMES = {"intensity": ModelKind.IMPLIED_INTENSITY, "regression": ModelKind.LINEAR_REGRESSION}
_CORRELATION_NAMES = {
    "per-variable": CorrelationMode.CORRELATED_PER_VARIABLE,
    "per-year": CorrelationMode.INDEPENDENT_PER_YEAR,
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def write_text_atomic(path: Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class RunManifest:
    """Everything needed to reproduce a simulate run byte-for-byte."""

    tool_version: str
    created_utc: str
    config: dict
    input_digests: dict
    output_paths: list
    duration_seconds: float
    rng_stream: str
    environment: dict

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Input helpers
# ---------------------------------------------------------------------------

def _load_bundle_or_table(path: str) -> ScenarioBundle | DriverTable:
    if Path(path).suffix.lower() == ".json":
        return load_bundle(path)
    return parse_driver_csv(path)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _parse_percentiles(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad percentile list {text!r}") from None


def _json_object(doc) -> dict:
    if not isinstance(doc, dict):
        raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
    return doc


def _halfwidths_from_dict(doc) -> dict:
    out = {}
    for name, spec in _json_object(doc).items():
        if isinstance(spec, dict):
            unit = Unit(spec.get("unit", Unit.TWH.value))
            out[name] = AnnualSeries(unit, tuple((int(y), float(v)) for y, v in spec["points"]))
        else:
            out[name] = float(spec)
    return out


def _config_values(doc) -> dict:
    """Typed values of a ``--config`` document; other keys are ignored."""
    types = {
        "realizations": int,
        "seed": int,
        "ci_level": float,
        "halfwidths": _halfwidths_from_dict,
        "halfwidth_pct": float,
        "percentiles": lambda ps: tuple(float(p) for p in ps),
        "correlation": _CORRELATION_NAMES.__getitem__,
        "model": _MODEL_NAMES.__getitem__,
    }
    return {key: types[key](value) for key, value in _json_object(doc).items() if key in types}


def _resolve_simulation_config(args) -> SimulationConfig:
    file_cfg = read_json(args.config, _config_values) if args.config else {}

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        return file_cfg.get(key, default)

    if args.halfwidths:
        halfwidths = read_json(args.halfwidths, _halfwidths_from_dict)
    elif args.halfwidth_pct is not None:
        halfwidths = {v: args.halfwidth_pct for v in default_halfwidths()}
    elif "halfwidths" in file_cfg:
        halfwidths = file_cfg["halfwidths"]
    elif "halfwidth_pct" in file_cfg:
        halfwidths = {v: file_cfg["halfwidth_pct"] for v in default_halfwidths()}
    else:
        halfwidths = default_halfwidths()

    try:
        seed = pick(args.seed, "seed", None)
        if seed is None:
            seed = int(os.environ.get("EMISIM_SEED", "0"))
        return SimulationConfig(
            realizations=pick(args.realizations, "realizations", 10_000),
            master_seed=seed,
            ci_level=pick(args.ci_level, "ci_level", 0.99),
            halfwidths=halfwidths,
            correlation_mode=pick(_CORRELATION_NAMES.get(args.correlation), "correlation",
                                  CorrelationMode.CORRELATED_PER_VARIABLE),
            percentiles=pick(args.percentiles, "percentiles", (5.0, 50.0, 95.0)),
            model_kind=pick(_MODEL_NAMES.get(args.model), "model", ModelKind.IMPLIED_INTENSITY),
        )
    except ValueError as exc:
        raise EmisimError(f"bad configuration: {exc}") from exc


def _emit(args, text: str, json_doc=None) -> None:
    """Write to --out (atomically) or stdout, honoring --format."""
    if getattr(args, "format", "csv") == "json" and json_doc is not None:
        text = json.dumps(json_doc, indent=2) + "\n"
    if getattr(args, "out", None):
        write_text_atomic(Path(args.out), text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    table = parse_driver_csv(args.input)
    years = table.years
    print(f"OK: {len(table)} rows, years {years[0]}-{years[-1]}")
    return EXIT_OK


def cmd_emissions(args) -> int:
    source = _load_bundle_or_table(args.input)
    if isinstance(source, DriverTable):
        model = fit_model(source, _MODEL_NAMES[args.model or "intensity"])
        points = list(zip(source.years, predict_table(model, source).tolist()))
        lines = ["year,mean"]
        lines += [f"{y},{v!r}" for y, v in points]
        doc = {"mean": {str(y): v for y, v in points}}
        _emit(args, "\n".join(lines) + "\n", doc)
        return EXIT_OK
    trajectories = list(source.trajectories)
    if not trajectories:
        raise EmptyInputError("bundle holds no trajectories")
    mean = mean_scenario(trajectories)
    names = [t.name for t in trajectories]
    lines = [",".join(["year"] + names + ["mean"])]
    for year in mean.years:
        cells = [str(year)]
        cells += [repr(t.series.value_at(year)) for t in trajectories]
        cells.append(repr(mean.value_at(year)))
        lines.append(",".join(cells))
    doc = {
        "scenarios": {t.name: {str(y): v for y, v in t.series.points} for t in trajectories},
        "mean": {str(y): v for y, v in mean.points},
    }
    _emit(args, "\n".join(lines) + "\n", doc)
    return EXIT_OK


def cmd_mean(args) -> int:
    bundle = load_bundle(args.input)
    if not bundle.trajectories:
        raise EmptyInputError("bundle holds no trajectories")
    mean = mean_scenario(list(bundle.trajectories))
    doc = {"unit": mean.unit.value, "points": [list(p) for p in mean.points]}
    _emit(args, series_to_csv_text(mean), doc)
    return EXIT_OK


def cmd_fit(args) -> int:
    table = parse_driver_csv(args.input)
    model = fit_model(table, _MODEL_NAMES[args.model or "intensity"])
    _emit(args, model_to_json(model))
    return EXIT_OK


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    config = _resolve_simulation_config(args)
    table = parse_driver_csv(args.input)
    result = run_simulation(table, config, workers=args.workers)
    band = bands(result)

    _emit(args, band.to_csv_text(), band.to_dict())
    out_path = Path(args.out) if args.out else None
    outputs = [str(out_path)] if out_path else []

    if args.matrix_out:
        write_text_atomic(Path(args.matrix_out), result.to_csv_text())
        outputs.append(str(args.matrix_out))

    if out_path:
        digests = {str(args.input): _sha256_file(Path(args.input))}
        if args.config:
            digests[str(args.config)] = _sha256_file(Path(args.config))
        if args.halfwidths:
            digests[str(args.halfwidths)] = _sha256_file(Path(args.halfwidths))
        manifest = RunManifest(
            tool_version=__version__,
            created_utc=datetime.now(timezone.utc).isoformat(),
            config=config.to_dict(),
            input_digests=digests,
            output_paths=outputs,
            duration_seconds=time.perf_counter() - started,
            rng_stream=RNG_STREAM,
            environment={"python": platform.python_version(), "numpy": np.__version__},
        )
        write_text_atomic(out_path.with_name(out_path.name + ".manifest.json"), manifest.to_json())
        print(
            f"simulated {config.realizations} realizations over "
            f"{len(result.years)} years (clamped draws: {result.clamped_draws}); "
            f"wrote {', '.join(outputs)}"
        )
    return EXIT_OK


def cmd_bands(args) -> int:
    try:
        percentiles = validate_percentiles(args.percentiles or (5.0, 50.0, 95.0))
    except ValueError as exc:
        raise EmisimError(f"bad percentiles: {exc}") from None
    lines = [ln for ln in read_text(args.input).splitlines() if ln.strip()]
    if len(lines) < 2:
        raise SchemaError(1, 1, "no data rows")
    try:
        years = tuple(int(c) for c in lines[0].split(","))
        matrix = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise SchemaError(1, 1, f"bad ensemble matrix: {exc}") from None
    if matrix.shape[1] != len(years):
        raise SchemaError(1, 1, "ragged ensemble matrix")
    band = bands_from_matrix(matrix, years, percentiles)
    _emit(args, band.to_csv_text(), band.to_dict())
    return EXIT_OK


def cmd_equiv(args) -> int:
    homes = equivalent_homes(args.co2_mt)
    print(f"{homes!r} homes ({homes / 1e6:.2f} million)")
    return EXIT_OK


def cmd_project(args) -> int:
    has_cagr = args.rate is not None or args.years is not None
    has_doubling = args.doubling_months is not None or args.horizon is not None
    if has_cagr == has_doubling:
        raise EmisimError("choose one mode: --rate/--years or --doubling-months/--horizon")
    if has_cagr:
        if args.rate is None or args.years is None:
            raise EmisimError("CAGR mode needs both --rate and --years")
        series = cagr_project(args.base, args.rate, args.years)
        print(repr(series.values[-1]))
    else:
        if args.doubling_months is None or args.horizon is None:
            raise EmisimError("doubling mode needs both --doubling-months and --horizon")
        print(repr(doubling_project(args.base, args.doubling_months, args.horizon)))
    return EXIT_OK


def cmd_inference_energy(args) -> int:
    wh = inference_energy(args.task, args.count, bundled_inference_table())
    print(f"{wh!r} Wh")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="emisim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"emisim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a driver table file")
    p.add_argument("--input", required=True, help="driver CSV (or JSON) path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("emissions", help="emission trajectory per scenario plus the mean")
    p.add_argument("--input", required=True, help="scenario bundle JSON or driver CSV")
    p.add_argument("--model", choices=sorted(_MODEL_NAMES), help="model for driver-table input")
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_emissions)

    p = sub.add_parser("mean", help="mean scenario of a bundle")
    p.add_argument("--input", required=True, help="scenario bundle JSON")
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_mean)

    p = sub.add_parser("fit", help="fit an emission model and export it as JSON")
    p.add_argument("--input", required=True, help="driver CSV (or JSON) path")
    p.add_argument("--model", choices=sorted(_MODEL_NAMES), help="model kind (default intensity)")
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="run the Monte Carlo ensemble and write bands")
    p.add_argument("--input", required=True, help="driver CSV (or JSON) path")
    p.add_argument("--config", help="JSON config file (flags take precedence)")
    p.add_argument("--model", choices=sorted(_MODEL_NAMES), help="model kind (default intensity)")
    p.add_argument("--realizations", type=int, help="ensemble size (default 10000)")
    p.add_argument("--seed", type=int, help="64-bit master seed (default EMISIM_SEED or 0)")
    p.add_argument("--ci-level", type=float, dest="ci_level", help="confidence level (default 0.99)")
    p.add_argument("--halfwidth-pct", type=float, dest="halfwidth_pct",
                   help="halfwidth for every variable, as fraction of its mean (default 0.10)")
    p.add_argument("--halfwidths", help="JSON file of per-variable halfwidths")
    p.add_argument("--correlation", choices=sorted(_CORRELATION_NAMES),
                   help="sampling mode (default per-variable)")
    p.add_argument("--percentiles", type=_parse_percentiles,
                   help="comma-separated percentiles (default 5,50,95)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="kept for compatibility; output and speed do not depend on it")
    p.add_argument("--out", help="bands output path; manifest written alongside")
    p.add_argument("--matrix-out", dest="matrix_out", help="also write the realization matrix CSV")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bands", help="percentile bands of a realization-matrix CSV")
    p.add_argument("--input", required=True, help="matrix CSV (year columns, realization rows)")
    p.add_argument("--percentiles", type=_parse_percentiles,
                   help="comma-separated percentiles (default 5,50,95)")
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_bands)

    p = sub.add_parser("equiv", help="American-home equivalence of an emission amount")
    p.add_argument("co2_mt", type=float, help="emissions in Mt CO2 per year")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("project", help="compound-growth or doubling-time projection")
    p.add_argument("--base", type=float, required=True, help="starting value")
    p.add_argument("--rate", type=float, help="annual growth rate (CAGR mode)")
    p.add_argument("--years", type=int, help="number of years (CAGR mode)")
    p.add_argument("--doubling-months", type=float, dest="doubling_months",
                   help="doubling period in months (doubling mode)")
    p.add_argument("--horizon", type=float, help="horizon in months (doubling mode)")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("inference-energy", help="energy use of AI inference tasks")
    p.add_argument("task", help="task name, e.g. image_generation")
    p.add_argument("--count", type=int, default=1, help="number of task units (default 1)")
    p.set_defaults(func=cmd_inference_energy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EmisimError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
