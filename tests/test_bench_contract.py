"""The benchmark in ``bench/`` run as a test, so that a change which renames
or re-signs a function the benchmark wraps fails here as well as there."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _assert_workload_passes(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    summary = json.loads(lines[-1])
    assert summary["correct"] is True, proc.stderr
    assert summary["failed"] == 0
    assert proc.returncode == 0


def test_benchmark_workload_runs_and_passes_its_checks():
    # this workload goes through CountingModel, the --workers 2 reference run
    # and every function that bench/worker.py wraps (--trace 1)
    _assert_workload_passes("simulate-per-year-regression", "1")


# simulate-per-variable checks that per-variable draws are shared across
# years, and traced, that CountingModel passes on the semis_twh plane the
# intensity model does not read (None); matrix-roundtrip that `emisim bands`
# on the matrix gives simulate's bands byte for byte
@pytest.mark.parametrize("workload,trace", [
    pytest.param("simulate-per-variable", "1", id="simulate-per-variable"),
    pytest.param("matrix-roundtrip", "0", id="matrix-roundtrip"),
    # the traced run wraps EnsembleResult.to_csv_text by name
    pytest.param("matrix-roundtrip", "1", id="matrix-roundtrip-traced"),
])
def test_benchmark_workload_checks_pass(workload, trace):
    _assert_workload_passes(workload, trace)
