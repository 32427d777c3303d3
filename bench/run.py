"""Benchmark of `emisim simulate` and of the matrix round trip.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in ``WORKERS`` fresh processes, one after another, each
measuring for an equal share of ``--seconds`` (see worker.py), and pools
what they measured. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits non-zero, without that line, when the checkout holds no emisim
sources, and with ``correct: false`` when an output fails a check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from worker import HERE, SRC, WORKLOADS

# Fresh processes per run. Each gives one set-up time, and pooling them
# averages out what differs between processes (memory layout, start-up).
WORKERS = 4
# Time a worker may take beyond its share of --seconds: set-up, the traced
# run's tracemalloc operation and the last operation take a few seconds.
WORKER_SLACK_S = 30.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s",
                    "realizations_per_s": "realizations/s", "peak_rss_mb": "MiB"}
LAYER_UNITS = {
    "setup.import_s": "s", "ingest.parse_s": "s", "model.fit_s": "s",
    "ensemble.specs_s": "s", "ensemble.sample_s": "s", "ensemble.normals": "count",
    "ensemble.ns_per_normal": "ns", "ensemble.clamped_draws": "count",
    "ensemble.alloc_peak_mb": "MiB", "model.predict_s": "s", "model.predictions": "count",
    "model.clamped_predictions": "count", "ensemble.bands_s": "s",
    "cli.bands_text_s": "s", "cli.matrix_text_s": "s", "cli.matrix_mb": "MiB",
    "cli.write_s": "s", "cli.matrix_parse_s": "s", "cli.alloc_peak_mb": "MiB",
    "trace.overhead_s": "s",
}


def run_worker(args, index: int) -> dict:
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / WORKERS), "--trace", str(args.trace),
               "--index", str(index)]
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(command + ["--launched", repr(launched)], capture_output=True,
                          text=True, timeout=args.seconds / WORKERS + WORKER_SLACK_S)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"worker {index} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(results: list[dict]) -> dict:
    wall = statistics.median(t for r in results for t in r["op_s"])
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "wall_s": wall,
        "realizations_per_s": results[0]["realizations"] / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def per_layer(results: list[dict]) -> dict:
    values = {name: statistics.median(v for r in results for v in r["layers"][name])
              for name in results[0]["layers"]}
    for name in results[0]["once"]:
        values[name] = statistics.median(r["once"][name] for r in results)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "emisim" / "cli.py").is_file():
        sys.exit(f"no emisim sources under {SRC}")

    results = [run_worker(args, k) for k in range(WORKERS)]
    errors = [e for r in results for e in r["errors"]]
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    if args.trace:
        values, units = per_layer(results), LAYER_UNITS
    else:
        values, units = end_to_end(results), END_TO_END_UNITS
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
