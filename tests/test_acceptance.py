"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them).
"""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

from emisim.cli import main
from emisim.core import SimulationConfig, mean_scenario
from emisim.ensemble import (
    bands,
    bands_from_matrix,
    ci_to_sigma,
    percentile,
    run_simulation,
    sigma_to_ci,
)
from emisim.ingest import (
    bundled_ai_co2_bundle,
    bundled_driver_table,
    cagr_project,
    equivalent_homes,
)
from emisim.model import fit_implied_intensity, fit_linear_regression, predict_table

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "emisim" / "data"
TABLE_PATH = str(DATA_DIR / "table2.csv")


def _report(number, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_table_reproduction():
    table = bundled_driver_table()
    start = time.perf_counter()
    model = fit_implied_intensity(table)
    worst = 0.0
    for row, pred in zip(table.rows, predict_table(model, table)):
        worst = max(worst, abs(pred - row.co2_mt) / row.co2_mt)
    elapsed = time.perf_counter() - start
    _report(
        1,
        "intensity model reproduces the 16-row CO2 column",
        worst <= 1e-9 and elapsed < 0.010,
        f"max rel err {worst:.2e}, {elapsed * 1e3:.2f} ms",
    )


def test_criterion_2_mean_scenario_consistency():
    mean = mean_scenario(list(bundled_ai_co2_bundle().trajectories))
    value = mean.value_at(2035)
    observed_2035 = {r.year: r for r in bundled_driver_table().rows}[2035].co2_mt
    diagnostic = abs(value - observed_2035) / observed_2035
    _report(
        2,
        "mean of the four quoted 2035 scenario endpoints",
        abs(value - 126.25) <= 1e-9 and diagnostic < 0.05,
        f"mean {value}, vs observed {observed_2035}: {diagnostic:.2%}",
    )


def test_criterion_3_growth_projection():
    final = cagr_project(152.0, 0.15, 7).values[-1]
    _report(
        3,
        "15% compound growth takes 152 TWh (2023) to ~403 TWh (2030)",
        400.0 <= final <= 408.0 and abs(final - 403.0) / 403.0 <= 0.01,
        f"{final:.2f} TWh",
    )


def test_criterion_4_household_equivalence():
    homes = equivalent_homes(100.0)
    _report(4, "100 Mt CO2 equals 13.5 million homes", homes == 13.5e6, f"{homes!r}")


def test_criterion_5_band_envelope():
    table = bundled_driver_table()
    config = SimulationConfig(realizations=10_000, master_seed=42)
    start = time.perf_counter()
    result = run_simulation(table, config)
    band = bands(result)
    elapsed = time.perf_counter() - start
    ok = True
    worst = ""
    for year in range(2030, 2036):
        p5, p95 = band.value(year, 5.0), band.value(year, 95.0)
        if not (p5 >= 35.0 and p95 <= 240.0):
            ok = False
            worst = f"{year}: [{p5:.1f}, {p95:.1f}]"
    _report(
        5,
        "P5/P95 bands stay inside the 35-240 Mt extreme-scenario envelope",
        ok and elapsed <= 1.0,
        worst or f"2035 band [{band.value(2035, 5.0):.1f}, {band.value(2035, 95.0):.1f}] Mt, "
                 f"{elapsed:.2f} s",
    )


def test_criterion_6_determinism(tmp_path):
    hashes = []
    for name, workers in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "4")):
        out = tmp_path / name
        code = main(
            ["simulate", "--input", TABLE_PATH, "--seed", "42",
             "--workers", workers, "--out", str(out)]
        )
        assert code == 0
        hashes.append(hashlib.sha256(out.read_bytes()).hexdigest())
    _report(
        6,
        "simulate output is hash-identical across reruns and worker counts",
        hashes[0] == hashes[1] == hashes[2],
        hashes[0][:12],
    )


def test_criterion_7_property_suite():
    table = bundled_driver_table()
    failures = []

    # (a) percentile monotonicity on 1000 random ensembles
    rng = np.random.RandomState(2024)
    for _ in range(1000):
        matrix = rng.uniform(0.0, 400.0, size=(rng.randint(1, 30), rng.randint(1, 5)))
        b = bands_from_matrix(matrix, range(matrix.shape[1]), (5.0, 50.0, 95.0))
        if np.any(np.diff(b.levels, axis=1) < 0.0):
            failures.append("band monotonicity")
            break

    # (b) degenerate sigma = 0 collapse
    config = SimulationConfig(
        realizations=100, master_seed=9,
        halfwidths={v: 0.0 for v in ("semis_twh", "dc_twh", "mix_factor", "ai_share")},
    )
    b = bands(run_simulation(table, config))
    curve = predict_table(fit_implied_intensity(table), table).tolist()
    for year, expected in zip(table.years, curve):
        if not (b.value(year, 5.0) == b.value(year, 50.0) == b.value(year, 95.0) == expected):
            failures.append("sigma-zero collapse")
            break

    # (c) percentile equivalence against an independent interpolation oracle
    rng = np.random.RandomState(7)
    for n in range(1, 9):
        values = list(rng.uniform(0, 100, size=n))
        sorted_values = np.sort(values)
        for p in range(1, 100):
            mine = percentile(values, p)
            oracle = float(np.interp(p / 100.0 * (n - 1), np.arange(n), sorted_values))
            if abs(mine - oracle) > 1e-9:
                failures.append(f"percentile oracle n={n} p={p}")
                break

    # (d) OLS residual orthogonality
    model = fit_linear_regression(table)
    X = np.column_stack(
        [np.ones(len(table)), table.column("semis_twh"), table.column("dc_twh"),
         table.column("mix_factor"), table.column("ai_share")]
    )
    residuals = np.asarray(table.column("co2_mt")) - X @ np.array(model.coefficients)
    if np.max(np.abs(X.T @ residuals)) > 1e-8:
        failures.append("OLS orthogonality")

    # (e) ci/sigma round trip
    for level in (0.5, 0.9, 0.95, 0.99, 0.999):
        for halfwidth in (1e-6, 0.5, 91.8, 5000.0):
            if abs(sigma_to_ci(ci_to_sigma(halfwidth, level), level) - halfwidth) / halfwidth > 1e-12:
                failures.append(f"ci round trip level={level}")
                break

    _report(
        7,
        "property suite (monotonicity, collapse, percentile oracle, "
        "orthogonality, CI round trip)",
        not failures,
        "; ".join(failures) or "all properties hold",
    )
