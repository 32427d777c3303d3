"""Command-line pipeline: validate, fit, project, simulate, and band export.

Exit codes: 0 success, 1 usage, 2 validation failure, 3 I/O failure,
4 numeric failure. :func:`main` alone turns a failure into an exit code and
one stderr line: an ``EmisimError`` ends with its own ``exit_code``, a
``ValueError`` with 2, an ``ArithmeticError`` with 4, an ``OSError`` with 3.
All file writes are atomic (temp file + rename), so a failing run never
leaves partial outputs behind.

The ``simulate --config`` JSON file has exactly the schema of the ``config``
block of a run manifest, so ``simulate --input T --config <that block>``
replays the run; an unknown key exits 2. Flags beat the file, the file beats
``EMISIM_SEED`` in the environment, and that beats the built-in default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    DRIVER_VARIABLES,
    CorrelationMode,
    ModelKind,
    SimulationConfig,
    converted,
    mean_scenario,
    validate_percentiles,
)
from .ensemble import RNG_STREAM, bands, bands_from_matrix, run_simulation
from .errors import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EmisimError
from .ingest import (
    bundled_inference_table,
    cagr_project,
    csv_text,
    doubling_project,
    equivalent_homes,
    inference_energy,
    load_bundle,
    parse_driver_csv,
    parse_matrix_csv_text,
    read_json,
    read_text,
    series_to_csv_text,
)
from .model import fit_model, model_to_json, predict_table

_MODEL_NAMES = {"intensity": ModelKind.IMPLIED_INTENSITY, "regression": ModelKind.LINEAR_REGRESSION}


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


# ---------------------------------------------------------------------------
# Input helpers
# ---------------------------------------------------------------------------

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


def _resolve_simulation_config(args) -> SimulationConfig:
    """The ``--config`` document with every given flag laid over it, and
    ``EMISIM_SEED`` as the seed if neither sets one."""
    doc = read_json(args.config, _json_object) if args.config else {}
    if args.halfwidths:
        # converted while read, so that a bad halfwidth names the file
        doc["halfwidths"] = read_json(args.halfwidths, lambda hw: SimulationConfig.from_dict(
            {"halfwidths": hw}).to_dict()["halfwidths"])
    elif args.halfwidth_pct is not None:
        doc["halfwidths"] = dict.fromkeys(DRIVER_VARIABLES, args.halfwidth_pct)
    flags = {
        "realizations": args.realizations,
        "master_seed": args.seed,
        "ci_level": args.ci_level,
        "correlation_mode": args.correlation,
        "percentiles": args.percentiles,
        "model_kind": args.model and _MODEL_NAMES[args.model],
    }
    doc.update((key, value) for key, value in flags.items() if value is not None)
    if "master_seed" not in doc and "EMISIM_SEED" in os.environ:
        doc["master_seed"] = converted("EMISIM_SEED", int, os.environ["EMISIM_SEED"])
    return SimulationConfig.from_dict(doc)


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
    print(f"OK: {len(table)} rows, years {table.years[0]}-{table.years[-1]}")
    return EXIT_OK


def cmd_emissions(args) -> int:
    is_bundle = Path(args.input).suffix.lower() == ".json"
    source = load_bundle(args.input) if is_bundle else parse_driver_csv(args.input)
    if not is_bundle:
        model = fit_model(source, _MODEL_NAMES[args.model or "intensity"])
        points = list(zip(source.years, predict_table(model, source).tolist()))
        text = csv_text(("year", "mean"), ((str(y), repr(v)) for y, v in points))
        _emit(args, text, {"mean": {str(y): v for y, v in points}})
        return EXIT_OK
    trajectories = list(source.trajectories)
    mean = mean_scenario(trajectories)
    series = [t.series for t in trajectories] + [mean]
    header = ["year"] + [t.name for t in trajectories] + ["mean"]
    rows = ([str(y)] + [repr(s.value_at(y)) for s in series] for y in mean.years)
    doc = {
        "scenarios": {t.name: {str(y): v for y, v in t.series.points} for t in trajectories},
        "mean": {str(y): v for y, v in mean.points},
    }
    _emit(args, csv_text(header, rows), doc)
    return EXIT_OK


def cmd_mean(args) -> int:
    mean = mean_scenario(list(load_bundle(args.input).trajectories))
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
        inputs = (args.input, args.config, args.halfwidths)
        digests = {str(path): _sha256_file(Path(path)) for path in inputs if path}
        # everything needed to reproduce the run byte for byte
        manifest = {
            "tool_version": __version__,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "config": config.to_dict(),
            "input_digests": digests,
            "output_paths": outputs,
            "duration_seconds": time.perf_counter() - started,
            "rng_stream": RNG_STREAM,
            "environment": {"python": platform.python_version(), "numpy": np.__version__},
        }
        write_text_atomic(out_path.with_name(out_path.name + ".manifest.json"),
                          json.dumps(manifest, indent=2) + "\n")
        print(
            f"simulated {config.realizations} realizations over "
            f"{len(result.years)} years (clamped draws: {result.clamped_draws}); "
            f"wrote {', '.join(outputs)}"
        )
    return EXIT_OK


def cmd_bands(args) -> int:
    percentiles = validate_percentiles(args.percentiles or SimulationConfig.percentiles)
    years, matrix = parse_matrix_csv_text(read_text(args.input))
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
    p.add_argument("--config", help="JSON file shaped like a manifest's config block; flags beat it")
    p.add_argument("--model", choices=sorted(_MODEL_NAMES), help="model kind (default intensity)")
    p.add_argument("--realizations", type=int, help="ensemble size (default 10000)")
    p.add_argument("--seed", type=int, help="64-bit master seed (default EMISIM_SEED or 0)")
    p.add_argument("--ci-level", type=float, dest="ci_level", help="confidence level (default 0.99)")
    p.add_argument("--halfwidth-pct", type=float, dest="halfwidth_pct",
                   help="halfwidth for every variable, as fraction of its mean (default 0.10)")
    p.add_argument("--halfwidths", help="JSON file of per-variable halfwidths")
    p.add_argument("--correlation", choices=[mode.value for mode in CorrelationMode],
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
    except (EmisimError, ValueError, ArithmeticError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, EmisimError):
            return exc.exit_code
        return EXIT_VALIDATION if isinstance(exc, ValueError) else EXIT_NUMERIC
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
