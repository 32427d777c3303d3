"""Command-line pipeline: validate, fit, project, simulate, and band export.

Exit codes: 0 success, 1 usage, 2 validation failure, 3 I/O failure,
4 numeric failure. :func:`main` returns every exit code, raising none
(``--help`` and ``--version`` return 0), and alone turns a failure into an
exit code and one stderr line: a usage error ends with 1 after argparse's
usage line, an ``EmisimError`` with its own ``exit_code``, a
``ValueError`` or ``MemoryError`` with 2, an ``ArithmeticError`` with 4, an
``OSError`` with 3. Every write is atomic (temp file + rename), and ``simulate``
renames its files only once all are written: a failure leaves no partial outputs.

The ``simulate --config`` JSON file has exactly the schema of the ``config``
block of a run manifest, so ``simulate --input T --config <that block>``
replays the run; an unknown key exits 2. Flags beat the file, the file beats
``EMISIM_SEED`` in the environment, and that beats the built-in default seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import re
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from numpy.lib.introspect import opt_func_info

from . import __version__
from .core import (
    DRIVER_VARIABLES,
    CorrelationMode,
    DriverTable,
    ModelKind,
    SimulationConfig,
    converted,
    mean_scenario,
)
from .ensemble import RNG_STREAM, bands, bands_from_matrix, run_simulation
from .errors import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EmisimError
from .ingest import (
    _plain_number,
    bundled_inference_table,
    cagr_value,
    csv_text,
    doubling_project,
    equivalent_homes,
    inference_energy,
    load_bundle,
    parse_bundle_or_driver_table,
    parse_driver_csv,
    read_json,
    series_to_csv_text,
)
from .matrix import read_matrix_csv
from .model import fit_model, model_to_json, predict_table

# The interpreter's builtin sha256, as random.py takes its sha512: hashlib
# loads OpenSSL's libcrypto, some 3.5 MiB of peak RSS, to hash a few inputs.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:  # an interpreter built without its own sha256
        from hashlib import sha256

_MODEL_NAMES = {"intensity": ModelKind.IMPLIED_INTENSITY, "regression": ModelKind.LINEAR_REGRESSION}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1, and a negative
    number in exponent form, like ``-1e3``, or a word ``float`` reads, like
    ``-inf``, read as a value, not an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern knows -1000 and -.5 but not -1e3, -1. or -inf.
        self._negative_number_matcher = re.compile(
            r"^-(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|(?i:inf(?:inity)?|nan))$")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def write_text_atomic(files: dict[Path, str]) -> None:
    """Write every text of ``files`` to its path, or none: each goes to a temp
    file next to its path, and they are renamed only once all are written."""
    temps = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in files}
    try:
        for path, text in files.items():
            temps[path].write_text(text, encoding="utf-8")
        for path, tmp in temps.items():
            os.replace(tmp, path)
    except OSError as exc:  # named by the path the caller gave, not by its temp file
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    finally:
        for tmp in temps.values():
            tmp.unlink(missing_ok=True)


@functools.cache
def _environment() -> dict:
    """What besides the inputs decides a run's bytes, found once per process
    and without starting one (``platform.platform()`` runs ``uname -p``).
    ``libc`` is ``platform.libc_ver()``'s name and version, or "" where it
    cannot name the C library."""
    dispatch = opt_func_info(func_name="^(log|tan)$", signature="float64")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "libc": " ".join(filter(None, platform.libc_ver())),
        # the random stream's bytes depend on the SIMD code numpy picks for these two
        "numpy_dispatch": {name: {signature: target["current"] for signature, target in loops.items()}
                           for name, loops in dispatch.items()},
    }


# ---------------------------------------------------------------------------
# Input helpers
# ---------------------------------------------------------------------------

def _plain(convert):
    """The argparse ``type`` that reads a flag as ``convert`` (``int`` or
    ``float``) does, without digit-group underscores or non-ASCII digits; it
    keeps the name, so a bad value reads "invalid int value"."""
    def parse(text: str):
        return _plain_number(text, convert)
    parse.__name__ = convert.__name__
    return parse


_INT, _FLOAT = _plain(int), _plain(float)


def _positive_int(text: str) -> int:
    try:
        value = _INT(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _parse_percentiles(text: str) -> tuple[float, ...]:
    try:
        return tuple(map(_FLOAT, text.split(",")))
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
        doc["halfwidths"] = read_json(args.halfwidths,
                                      lambda hw: SimulationConfig(halfwidths=hw).halfwidths)
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
        doc["master_seed"] = converted("EMISIM_SEED", _INT, os.environ["EMISIM_SEED"])
    return SimulationConfig.from_dict(doc)


def _refuse_overwrites(outputs: dict, inputs: dict) -> None:
    """Refuse, before any work, an output path that names another output or
    an input; each dict maps a flag to its path, or None where it is unset."""
    flags = {os.path.realpath(path): flag for flag, path in inputs.items() if path}
    for flag, path in outputs.items():
        if path:
            other = flags.setdefault(os.path.realpath(path), flag)
            if other != flag:
                raise EmisimError(f"{flag} and {other} name the same file: {path}")


def _emit(args, text: str, json_doc=None, also: dict | None = None) -> None:
    """Write to --out or stdout, honoring --format; the files of ``also`` are
    written with it, all or none."""
    if getattr(args, "format", "csv") == "json" and json_doc is not None:
        text = json.dumps(json_doc, indent=2) + "\n"
    files = {Path(args.out): text} if getattr(args, "out", None) else {}
    write_text_atomic({**files, **(also or {})})
    if not files:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    table = parse_driver_csv(args.input)
    print(f"OK: {len(table)} rows, years {table.years[0]}-{table.years[-1]}")
    return EXIT_OK


def cmd_emissions(args) -> int:
    _refuse_overwrites({"--out": args.out}, {"--input": args.input})
    source = parse_bundle_or_driver_table(args.input)
    if isinstance(source, DriverTable):
        model = fit_model(source, _MODEL_NAMES.get(args.model, SimulationConfig.model_kind))
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
    _refuse_overwrites({"--out": args.out}, {"--input": args.input})
    mean = mean_scenario(list(load_bundle(args.input).trajectories))
    _emit(args, series_to_csv_text(mean), mean.to_json())
    return EXIT_OK


def cmd_fit(args) -> int:
    _refuse_overwrites({"--out": args.out}, {"--input": args.input})
    table = parse_driver_csv(args.input)
    model = fit_model(table, _MODEL_NAMES.get(args.model, SimulationConfig.model_kind))
    _emit(args, model_to_json(model))
    return EXIT_OK


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    out = Path(args.out) if args.out else None
    manifest_out = out and out.with_name(out.name + ".manifest.json")
    _refuse_overwrites(
        {"--out": args.out, "--matrix-out": args.matrix_out, "the manifest": manifest_out},
        {"--input": args.input, "--config": args.config, "--halfwidths": args.halfwidths})
    config = _resolve_simulation_config(args)
    table = parse_driver_csv(args.input)
    result = run_simulation(table, config, workers=args.workers)
    band = bands(result)

    also = {Path(args.matrix_out): result.to_csv_text()} if args.matrix_out else {}
    outputs = [str(path) for path in (out, *also) if path]
    if out:
        inputs = (args.input, args.config, args.halfwidths)
        digests = {str(path): sha256(Path(path).read_bytes()).hexdigest()
                   for path in inputs if path}
        # everything needed to reproduce the run byte for byte
        manifest = {
            "tool_version": __version__,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "config": config.to_dict(),
            "input_digests": digests,
            "output_paths": outputs,
            "duration_seconds": time.perf_counter() - started,
            "rng_stream": RNG_STREAM,
            "environment": _environment(),
            "counters": {"clamped_draws": result.clamped_draws,
                         "clamped_predictions": result.clamped_predictions},
        }
        also[manifest_out] = json.dumps(manifest, indent=2) + "\n"
    _emit(args, band.to_csv_text(), band.to_dict(), also)
    if out:  # on stderr: stdout carries data only
        print(
            f"simulated {config.realizations} realizations over "
            f"{len(result.years)} years (clamped draws: {result.clamped_draws}); "
            f"wrote {', '.join(outputs)}",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_bands(args) -> int:
    _refuse_overwrites({"--out": args.out}, {"--input": args.input})
    years, matrix = read_matrix_csv(args.input)
    band = bands_from_matrix(matrix, years, args.percentiles or SimulationConfig.percentiles)
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
        print(repr(cagr_value(args.base, args.rate, args.years)))
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

@functools.cache
def build_parser() -> _Parser:
    """The ``emisim`` parser, built once per process: its ~50
    ``add_argument`` calls cost a few milliseconds, and parsing leaves it
    unchanged."""
    parser = _Parser(prog="emisim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"emisim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a driver table file")
    p.add_argument("--input", required=True, help="driver CSV (or JSON) path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("emissions", help="emission trajectory per scenario plus the mean")
    p.add_argument("--input", required=True, help="scenario bundle JSON or driver CSV (or JSON)")
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
    p.add_argument("--realizations", type=_INT, help="ensemble size (default 10000)")
    p.add_argument("--seed", type=_INT, help="64-bit master seed (default EMISIM_SEED or 0)")
    p.add_argument("--ci-level", type=_FLOAT, dest="ci_level",
                   help="confidence level (default 0.99)")
    p.add_argument("--halfwidth-pct", type=_FLOAT, dest="halfwidth_pct",
                   help="halfwidth for every variable as a fraction of its mean, not a "
                        "percent: 0.10 is +-10%% (default 0.10)")
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
    p.add_argument("co2_mt", type=_FLOAT, help="emissions in Mt CO2 per year")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("project", help="compound-growth or doubling-time projection")
    p.add_argument("--base", type=_FLOAT, required=True, help="starting value")
    p.add_argument("--rate", type=_FLOAT, help="annual growth rate (CAGR mode)")
    p.add_argument("--years", type=_INT, help="number of years (CAGR mode)")
    p.add_argument("--doubling-months", type=_FLOAT, dest="doubling_months",
                   help="doubling period in months (doubling mode)")
    p.add_argument("--horizon", type=_FLOAT, help="horizon in months (doubling mode)")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("inference-energy", help="energy use of AI inference tasks")
    p.add_argument("task", help="task name, e.g. image_generation")
    p.add_argument("--count", type=_INT, default=1, help="number of task units (default 1)")
    p.set_defaults(func=cmd_inference_energy)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (1), or --help and --version (0)
        return exc.code
    try:
        return args.func(args)
    except (EmisimError, ValueError, MemoryError, ArithmeticError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, EmisimError):
            return exc.exit_code
        return EXIT_NUMERIC if isinstance(exc, ArithmeticError) else EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
