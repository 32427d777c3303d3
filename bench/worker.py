"""One benchmark worker process: set up, time whole operations, check them.

``run.py`` starts a few of these one after another and pools what they
print. A worker imports emisim from ``src/`` of the checkout, copies the
driver table into a work directory, runs the workload once as warm-up and
reference, checks that reference against computations made apart from
emisim, then repeats the operation for ``--seconds`` and requires every
repetition to write the same bytes as the reference. It prints one JSON
line on stdout.

With ``--trace 1`` it first runs one operation under ``tracemalloc`` for the
allocation peaks, then alternates traced and untraced operations: the traced
ones give the per-layer figures, and the difference between the two kinds is
the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"


@dataclass(frozen=True)
class Workload:
    realizations: int
    flags: tuple[str, ...]
    # --workers of the reference made in set-up; the timed runs use 1
    reference_workers: int = 1
    per_year: bool = False
    regression: bool = False
    roundtrip: bool = False

    @property
    def normals(self) -> int:
        """Standard normals drawn per operation: 4 drivers, times 16 years
        when every year draws its own."""
        return self.realizations * 4 * (16 if self.per_year else 1)


WORKLOADS = {
    # `emisim simulate` with its defaults: intensity model, one draw per
    # driver shared by all years, one worker, bands CSV and manifest.
    "simulate-per-variable": Workload(20_000, ()),
    # 16x the normals per realization, the N x 4 x 16 draw array, and the
    # regression predict path with its clamp to zero. The thread-pool path
    # (--workers 2) makes the reference that every timed run must match; it
    # is not timed, because two threads taking turns on the GIL measure the
    # load of the host's other tenants more than the program.
    "simulate-per-year-regression": Workload(
        16_000, ("--correlation", "per-year", "--model", "regression"),
        reference_workers=2, per_year=True, regression=True),
    # Writes the realization matrix and reads it back with `emisim bands`.
    "matrix-roundtrip": Workload(
        8_000, ("--correlation", "per-year"), per_year=True, roundtrip=True),
}

# Spans that record a tracemalloc peak; none of them nests inside another.
ALLOC_SPANS = frozenset({"ensemble.run_simulation", "cli.matrix_text", "cli.bands"})


def master_seed(seed: int) -> int:
    """The 63-bit emisim master seed the benchmark seed stands for."""
    return random.Random(seed).getrandbits(63)


class Paths:
    def __init__(self, workdir: Path):
        self.table = workdir / "table2.csv"
        self.bands = workdir / "bands.csv"
        self.manifest = workdir / "bands.csv.manifest.json"
        self.matrix = workdir / "matrix.csv"
        self.bands_back = workdir / "bands_from_matrix.csv"

    def outputs(self, w: Workload) -> dict[str, bytes]:
        files = [self.bands] + ([self.matrix, self.bands_back] if w.roundtrip else [])
        return {f.name: f.read_bytes() for f in files}


def operation(w: Workload, paths: Paths, seed: int, workers: int = 1) -> list[list[str]]:
    """The CLI calls that make one operation of the workload."""
    simulate = ["simulate", "--input", str(paths.table), "--seed", str(seed),
                "--realizations", str(w.realizations), *w.flags,
                "--workers", str(workers), "--out", str(paths.bands)]
    if not w.roundtrip:
        return [simulate]
    return [simulate + ["--matrix-out", str(paths.matrix)],
            ["bands", "--input", str(paths.matrix), "--out", str(paths.bands_back)]]


def run_calls(main, calls, sink, tracer=None) -> bool:
    """Run the CLI calls in-process; False as soon as one exits non-zero."""
    for argv in calls:
        with contextlib.redirect_stdout(sink):
            if tracer is None:
                code = main(argv)
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    code = main(argv)
        if code != 0:
            return False
    return True


def check_reference(w: Workload, paths: Paths, out: dict[str, bytes], checks) -> None:
    """Check the reference outputs against computations made apart from emisim."""
    table = checks.read_csv(paths.table.read_text(encoding="utf-8"))
    bands = checks.read_csv(out["bands.csv"].decode())
    checks.check_band_shape(bands)
    if w.regression:
        checks.check_regression_mean(bands, table, w.realizations)
    else:
        checks.check_intensity_mean(bands, table, w.realizations)
    if not w.per_year:
        checks.check_common_factor(bands, table)
    if w.roundtrip:
        checks.require(out["bands_from_matrix.csv"] == out["bands.csv"],
                       "`emisim bands` output differs from the bands `simulate` wrote")
        checks.check_matrix_percentiles(out["matrix.csv"].decode(), bands, w.realizations)
    manifest = json.loads(paths.manifest.read_text(encoding="utf-8"))
    checks.require(manifest["config"]["realizations"] == w.realizations,
                   f"manifest records {manifest['config']['realizations']} realizations")


class CountingModel:
    """Passed as ``run_simulation(model=...)``: times ``predict_grid`` in a
    span and keeps its output so the benchmark can count entries and zeros."""

    def __init__(self, model, tracer):
        self.model = model
        self.kind = model.kind
        self.tracer = tracer
        self.output = None

    def predict_grid(self, *args):
        with self.tracer.span("model.predict"):
            self.output = self.model.predict_grid(*args)
        return self.output


def install_tracing(tracer, emisim, counts: dict) -> None:
    """Wrap the public calls the CLI makes into each module."""
    cli, ensemble, model = emisim.cli, emisim.ensemble, emisim.model
    fit = tracer.wrap(model.fit_model, "model.fit")
    run_simulation = ensemble.run_simulation

    def traced_run_simulation(table, config, workers=1):
        counted = CountingModel(fit(table, config.model_kind), tracer)
        with tracer.span("ensemble.run_simulation"):
            result = run_simulation(table, config, model=counted, workers=workers)
        counts["model.predictions"] = int(counted.output.size)
        counts["model.clamped_predictions"] = int((counted.output == 0.0).sum())
        counts["ensemble.clamped_draws"] = result.clamped_draws
        return result

    tracer.patch(cli, "parse_driver_csv", "ingest.parse")
    tracer.patch(cli, "run_simulation", "ensemble.run_simulation", traced_run_simulation)
    tracer.patch(ensemble, "build_perturbations", "ensemble.specs")
    tracer.patch(ensemble, "bands_from_matrix", "ensemble.bands")
    tracer.patch(cli, "bands_from_matrix", "ensemble.bands")
    tracer.patch(ensemble.PercentileBands, "to_csv_text", "cli.bands_text")
    tracer.patch(ensemble.EnsembleResult, "to_csv_text", "cli.matrix_text")
    tracer.patch(cli, "write_text_atomic", "cli.write")


def layer_times(tracer, op: int, w: Workload) -> dict[str, float]:
    """Per-layer seconds of one traced operation."""
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    self_times = tracer.self_times(op)
    for i, s in tracer.op_spans(op):
        total[s.name] = total.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + self_times[i]
    sample = own.get("ensemble.run_simulation", 0.0)
    return {
        "ingest.parse_s": total.get("ingest.parse", 0.0),
        "model.fit_s": total.get("model.fit", 0.0),
        "ensemble.specs_s": total.get("ensemble.specs", 0.0),
        "ensemble.sample_s": sample,
        "ensemble.ns_per_normal": sample / w.normals * 1e9,
        "model.predict_s": total.get("model.predict", 0.0),
        "ensemble.bands_s": total.get("ensemble.bands", 0.0),
        "cli.bands_text_s": total.get("cli.bands_text", 0.0),
        "cli.matrix_text_s": total.get("cli.matrix_text", 0.0),
        "cli.write_s": total.get("cli.write", 0.0),
        "cli.matrix_parse_s": own.get("cli.bands", 0.0),
    }


def alloc_peaks(tracer, op: int) -> dict[str, float]:
    peaks: dict[str, float] = {}
    for _, s in tracer.op_spans(op):
        if s.alloc_mb is not None:
            peaks[s.name] = max(peaks.get(s.name, 0.0), s.alloc_mb)
    return {
        "ensemble.alloc_peak_mb": peaks.get("ensemble.run_simulation", 0.0),
        "cli.alloc_peak_mb": max(peaks.get("cli.matrix_text", 0.0), peaks.get("cli.bands", 0.0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process was started")
    parser.add_argument("--index", type=int, default=0, help="worker number within the run")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(ALLOC_SPANS)
    sys.path.insert(0, str(SRC))
    import_started = time.perf_counter()
    emisim = importlib.import_module("emisim")
    importlib.import_module("emisim.cli")
    import_s = time.perf_counter() - import_started
    if not Path(emisim.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"emisim was imported from {emisim.__file__}, not from {SRC}")
    import checks

    RUN_DIR.mkdir(exist_ok=True)
    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        paths = Paths(workdir)
        shutil.copyfile(SRC / "emisim" / "data" / "table2.csv", paths.table)
        return measure(args, w, paths, emisim, checks, tracer, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, w, paths, emisim, checks, tracer, import_s) -> int:
    seed = master_seed(args.seed)
    main = emisim.cli.main
    errors: list[str] = []
    attempted = failed = 0
    with open(os.devnull, "w") as sink:
        # Warm-up and reference; every timed operation must match it.
        if not run_calls(main, operation(w, paths, seed, w.reference_workers), sink):
            sys.exit("the reference operation failed")
        reference = paths.outputs(w)
        try:
            check_reference(w, paths, reference, checks)
        except checks.CheckError as exc:
            errors.append(str(exc))

        result = {"realizations": w.realizations}
        calls = operation(w, paths, seed)

        def timed(traced: bool) -> float | None:
            nonlocal attempted, failed
            attempted += 1
            started = time.perf_counter()
            ok = run_calls(main, calls, sink, tracer if traced else None)
            elapsed = time.perf_counter() - started
            if not ok:
                failed += 1
                return None
            if paths.outputs(w) != reference:
                errors.append(f"operation {attempted} wrote other bytes than the reference")
            return elapsed

        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
        result["setup_s"] = ready - args.launched
        if tracer is None:
            times = []
            deadline = time.perf_counter() + args.seconds
            while True:
                elapsed = timed(False)
                if elapsed is not None:
                    times.append(elapsed)
                if time.perf_counter() >= deadline:
                    break
            result["op_s"] = times
        else:
            result.update(traced_ops(args, w, emisim, checks, paths, tracer, timed, errors))
            result["once"]["setup.import_s"] = import_s
    result.update(attempted=attempted, failed=failed, errors=errors,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


def traced_ops(args, w, emisim, checks, paths, tracer, timed, errors) -> dict:
    counts: dict = {}
    table = checks.read_csv(paths.table.read_text(encoding="utf-8"))

    def traced() -> float | None:
        tracer.op += 1
        install_tracing(tracer, emisim, counts)
        try:
            return timed(True)
        finally:
            tracer.unpatch()

    tracemalloc.start()
    traced()
    tracemalloc.stop()
    once = alloc_peaks(tracer, tracer.op)
    once.update(counts)
    once["ensemble.normals"] = w.normals
    once["cli.matrix_mb"] = paths.matrix.stat().st_size / 2**20 if w.roundtrip else 0.0
    if w.regression:
        try:
            checks.check_clamped_predictions(counts["model.clamped_predictions"], table, w.realizations)
        except checks.CheckError as exc:
            errors.append(str(exc))

    layers: dict[str, list] = {}
    traced_s, untraced_s = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        elapsed = traced()
        if elapsed is not None:
            traced_s.append(elapsed)
            for name, value in layer_times(tracer, tracer.op, w).items():
                layers.setdefault(name, []).append(value)
        elapsed = timed(False)
        if elapsed is not None:
            untraced_s.append(elapsed)
        if time.perf_counter() >= deadline:
            break

    spans_dir = RUN_DIR / "spans"
    spans_dir.mkdir(exist_ok=True)
    tracer.dump(spans_dir / f"{args.workload}-seed{args.seed}-worker{args.index}.jsonl")
    once["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    return {"layers": layers, "once": once}


if __name__ == "__main__":
    sys.exit(main())
