import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.introspect import opt_func_info
from scipy import stats
from scipy.special import ndtri  # independent quantile oracle

import emisim
from emisim import cli
from emisim.core import (
    DRIVER_VARIABLES,
    AnnualSeries,
    CorrelationMode,
    DriverTable,
    ModelKind,
    SimulationConfig,
    Unit,
)
from emisim import ensemble
from emisim.ensemble import (
    EnsembleResult,
    PercentileBands,
    bands,
    bands_from_matrix,
    build_perturbations,
    ci_to_sigma,
    percentile,
    run_simulation,
    sigma_to_ci,
    standard_normals,
    two_sided_z,
)
from emisim.ingest import bundled_driver_table
from emisim.matrix import parse_matrix_csv_text
from emisim.model import READ_VARIABLES, fit_implied_intensity, fit_model, predict_table


@pytest.fixture(scope="module")
def table():
    return bundled_driver_table()


def _config(**kwargs):
    defaults = dict(realizations=200, master_seed=42)
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


def _uniform_halfwidths(fraction):
    return {v: fraction for v in ("semis_twh", "dc_twh", "mix_factor", "ai_share")}


# ---------------------------------------------------------------------------
# Normal quantile and CI conversion
# ---------------------------------------------------------------------------

def test_normal_quantile_against_oracle():
    # two_sided_z(level) is the standard normal quantile at p = (1 + level) / 2;
    # 0.9514 and 0.9516 put p on either side of 0.9758 = 1 - 0.0242, where
    # AS241 leaves its central region for the tail
    for level in (1e-6, 0.001, 0.25, 0.5, 0.9, 0.95, 0.9514, 0.9516, 0.99, 1 - 2e-6):
        assert two_sided_z(level) == pytest.approx(float(ndtri((1 + level) / 2)), abs=1e-9)


def test_normal_quantile_tabulated_values():
    assert two_sided_z(0.99) == pytest.approx(2.5758293035489004, abs=1e-9)
    assert two_sided_z(0.95) == pytest.approx(1.959963984540054, abs=1e-9)


def test_ci_to_sigma_examples():
    assert ci_to_sigma(2.5758293, 0.99) == pytest.approx(1.0, abs=1e-7)
    assert ci_to_sigma(2.5758293, 0.99) == pytest.approx(2.5758293 / float(ndtri(0.995)), rel=1e-12)
    assert ci_to_sigma(0.0, 0.99) == 0.0
    assert ci_to_sigma(0.0, 0.42) == 0.0
    assert ci_to_sigma(1.959964, 0.95) == pytest.approx(1.0, abs=1e-7)


def test_ci_sigma_roundtrip():
    for level in (0.5, 0.9, 0.95, 0.99, 0.999):
        for halfwidth in (0.1, 1.0, 91.8, 1234.5):
            sigma = ci_to_sigma(halfwidth, level)
            back = sigma_to_ci(sigma, level)
            assert abs(back - halfwidth) / halfwidth <= 1e-12


def test_invalid_level():
    # at or below 2**-53, (1 + level) / 2 rounds to 0.5 and z to 0
    for level in (0.0, 1.0, -0.5, 2.0, 2.0**-53, 1e-17, 1e-320):
        with pytest.raises(ValueError, match=f"confidence level {level}"):
            ci_to_sigma(1.0, level)
        with pytest.raises(ValueError, match=f"confidence level {level}"):
            sigma_to_ci(1.0, level)
    assert ci_to_sigma(1.0, 2.0**-52) > 0.0


def test_negative_halfwidth_rejected():
    with pytest.raises(ValueError):
        ci_to_sigma(-1.0, 0.99)
    with pytest.raises(ValueError, match="sigma must be >= 0"):
        sigma_to_ci(-1.0, 0.9)


# ---------------------------------------------------------------------------
# Perturbation
# ---------------------------------------------------------------------------

def _row(name):
    return DRIVER_VARIABLES.index(name)


def test_build_perturbations_sigma_oracle(table):
    p = build_perturbations(table, _config())
    # dc_twh 2030: mean 918, 10% halfwidth at 99% level
    sigma = p.sigma[_row("dc_twh"), p.years.index(2030)]
    assert sigma == pytest.approx(91.8 / float(ndtri(0.995)), rel=1e-12)
    assert sigma == pytest.approx(35.64, abs=0.01)


def test_build_perturbations_bounds_and_means(table):
    p = build_perturbations(table, _config())
    bounds = {name: (p.lower[_row(name)], p.upper[_row(name)]) for name in DRIVER_VARIABLES}
    assert bounds["ai_share"] == (0.0, 1.0)
    assert bounds["mix_factor"] == (0.0, 1.0)
    assert bounds["dc_twh"] == (0.0, math.inf)
    assert bounds["semis_twh"] == (0.0, math.inf)
    assert p.mean[_row("ai_share"), p.years.index(2030)] == 0.73
    assert p.mean.shape == p.sigma.shape == (4, len(table.years))
    for array in (p.mean, p.sigma, p.lower, p.upper):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_build_perturbations_zero_halfwidth(table):
    p = build_perturbations(table, _config(halfwidths=_uniform_halfwidths(0.0)))
    assert np.all(p.sigma == 0.0)


def test_build_perturbations_missing_halfwidth(table):
    with pytest.raises(ValueError, match="no halfwidth configured for semis_twh"):
        build_perturbations(table, _config(halfwidths={"dc_twh": 0.1}))


def test_build_perturbations_per_year_series(table):
    hw = dict(_uniform_halfwidths(0.1))
    hw["dc_twh"] = AnnualSeries(Unit.TWH, tuple((y, 50.0) for y in table.years))
    p = build_perturbations(table, _config(halfwidths=hw))
    z = float(ndtri(0.995))
    assert p.sigma[_row("dc_twh"), p.years.index(2025)] == pytest.approx(50.0 / z, rel=1e-12)


def test_build_perturbations_series_must_cover_years(table):
    hw = dict(_uniform_halfwidths(0.1))
    hw["dc_twh"] = AnnualSeries(Unit.TWH, ((2020, 50.0),))
    with pytest.raises(ValueError, match="halfwidth series for dc_twh missing 'year 2021 not in"):
        build_perturbations(table, _config(halfwidths=hw))


def test_build_perturbations_rejects_fraction_sigma_above_one(table):
    # ai_share peaks at 0.73 in 2030: 4 x 0.73 / z(0.99) = 1.13, while 3x stays under 1
    build_perturbations(table, _config(halfwidths=_uniform_halfwidths(3.0)))
    with pytest.raises(ValueError, match="ai_share halfwidth gives sigma"):
        build_perturbations(table, _config(halfwidths=_uniform_halfwidths(4.0)))
    hw = dict(_uniform_halfwidths(0.1))
    hw["mix_factor"] = AnnualSeries(Unit.FRACTION, tuple((y, 1.0) for y in table.years))
    build_perturbations(table, _config(halfwidths=hw))
    hw["mix_factor"] = AnnualSeries(Unit.TWH, tuple((y, 3.0) for y in table.years))
    with pytest.raises(ValueError, match="mix_factor halfwidth gives sigma"):
        build_perturbations(table, _config(halfwidths=hw))


def test_build_perturbations_rejects_infinite_sigma(table):
    # 1e307 of a 269 TWh mean overflows to an infinite halfwidth
    hw = {**_uniform_halfwidths(0.1), "dc_twh": 1e307}
    with pytest.raises(ValueError, match="dc_twh halfwidth gives sigma inf"):
        build_perturbations(table, _config(halfwidths=hw))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_sample_realization_deterministic(table):
    a = run_simulation(table, _config(realizations=7)).matrix
    b = run_simulation(table, _config(realizations=7)).matrix
    assert np.array_equal(a[5], b[5])
    assert not np.array_equal(a[6], a[5])


def test_sample_realization_sigma_zero_equals_mean_curve(table):
    cfg = _config(realizations=1, halfwidths=_uniform_halfwidths(0.0))
    result = run_simulation(table, cfg)
    model = fit_implied_intensity(table)
    assert result.matrix[0].tolist() == predict_table(model, table).tolist()
    assert result.clamped_draws == 0


def test_sampled_drivers_respect_bounds_and_clamp_counter(table):
    # huge relative halfwidth forces tail draws past the bounds
    cfg = _config(realizations=500, halfwidths=_uniform_halfwidths(3.0))
    result = run_simulation(table, cfg)
    assert result.clamped_draws > 0
    assert np.all(result.matrix >= 0.0)
    assert np.all(np.isfinite(result.matrix))


def test_per_variable_draws_are_systematic_across_years(table):
    # realization i reads its normals from row i of the kernel: variable-major,
    # then year in per-year mode; one slot per variable, shared by every year,
    # in per-variable mode
    p = build_perturbations(table, _config())
    model = fit_implied_intensity(table)
    n_years = len(table.years)
    for mode, n_slots in ((CorrelationMode.CORRELATED_PER_VARIABLE, 4),
                          (CorrelationMode.INDEPENDENT_PER_YEAR, 4 * n_years)):
        z = standard_normals(42, 3, 4, n_slots).reshape(4, -1)
        drivers = [p.mean[k] + z[k] * p.sigma[k] for k in range(4)]
        expected = model.predict_grid(table.years, *drivers)
        got = run_simulation(table, _config(realizations=4, correlation_mode=mode)).matrix[3]
        assert np.array_equal(got, expected)
        # fractional halfwidths: a shared z scales every year by the same factor
        ratio = expected / np.asarray(table.column("co2_mt"))
        systematic = np.allclose(ratio, ratio[0], rtol=1e-12, atol=0.0)
        assert systematic == (mode is CorrelationMode.CORRELATED_PER_VARIABLE)


@pytest.mark.parametrize("n_slots", [4, 64])
@pytest.mark.parametrize("seed", [0, 42, 2**63 - 1])
def test_standard_normals_position_independent(n_slots, seed):
    # the determinism contract: a row is the same whether it is computed
    # alone, inside a slice, or inside the full call
    full = standard_normals(seed, 0, 3_000, n_slots)
    assert full.shape == (3_000, n_slots)
    for i in (0, 1, 511, 512, 1023, 1024, 1025, 2047, 2999):
        assert np.array_equal(standard_normals(seed, i, i + 1, n_slots)[0], full[i])
    assert np.array_equal(standard_normals(seed, 777, 2_345, n_slots), full[777:2_345])
    assert not np.array_equal(standard_normals(seed + 1, 0, 3_000, n_slots), full)


_MASK64 = 2**64 - 1
_EPS = np.finfo(float).eps


def _splitmix64(x: int) -> int:
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


def _pair_integers(seed: int, start: int, stop: int):
    """The 53-bit integers m1 and m2 behind u1 and u2 of pair counters
    start to stop, rebuilt in Python integers: stream output k is SplitMix64
    of first + k gamma, and counter c reads outputs 2c + 1 (u1) and 2c + 2 (u2)."""
    gamma = 0x9E3779B97F4A7C15
    first = _splitmix64((seed + gamma) & _MASK64)
    m = [_splitmix64((first + k * gamma) & _MASK64) >> 11 for k in range(2 * start + 1, 2 * stop + 1)]
    return np.array(m, dtype=np.float64).reshape(-1, 2).T  # exact below 2**53


def _box_muller_oracle(m1, m2):
    """r and r (cos, sin)(2 pi u2), shape (2, n), of the arrays of 53-bit
    integers m1 and m2, with numpy's cos and sin."""
    r = np.sqrt(-2.0 * np.log((m1 + 1.0) * 2.0**-53))
    angle = 2.0 * np.pi * (m2 * 2.0**-53)
    return r, r * np.stack([np.cos(angle), np.sin(angle)])


#: The SIMD target numpy's float64 log dispatches to. The stream's bytes and
#: those of its v1 reference follow log; X86_V3 (AVX2) and the baseline give
#: the same bytes, X86_V4 (AVX-512) others.
_LOG_LOOPS = opt_func_info(func_name="^log$", signature="float64")["log"]
_LOG_TARGET = next(iter(_LOG_LOOPS.values()))["current"]

#: By _LOG_TARGET and n_slots: the sha256 of
#: standard_normals(42, 5, 1029, n_slots).tobytes() under RNG_STREAM (v2), and
#: of the same uniforms under splitmix-boxmuller-v1, which took cos and sin
#: from numpy; v2 changed the angle step alone, so the v1 bytes are still the
#: Box-Muller oracle of the stream's uniforms and pin its counters, uniforms,
#: radius and slot layout apart from the tangent step
_STREAM_DIGESTS = {
    "X86_V4": {
        1: ("4c39835abdab10e5c2526dcfae9ff0f18722ebf24d6c263b39e66a09a5182dda",
            "ad84b1c5fb96206cb4291f2bb6b575143aeb2a15968a19b00ebe76666ccb3691"),
        3: ("e5df9633e13424b4a4327e23fb4e2669f10a5992f9ed7f0778a0c72eaad1a954",
            "ba97d0f6f4078dbdea392c5982aa54e3e9c18416cb327590e2f276218154fd93"),
        4: ("834b5dd093d287fcb7b97a29be41023d34ed2a7f4e6e3ba886a900a6fa9f90dd",
            "a4a7b18f7f17d84dff5502763f8f67b49e6dcaa4b13f04c40835861809f696c5"),
        64: ("3264bc1eb15cf54367ff3b300bfd0642a2c36b42f8d7b3c5bce47f9007af79f1",
             "3b8790bb4f5b67b41b68c9dbcb6691888e911af116f3d54b33365c246f2c24f5"),
    },
    "X86_V3": {
        1: ("4c39835abdab10e5c2526dcfae9ff0f18722ebf24d6c263b39e66a09a5182dda",
            "f01a50c0d2458e9025272a2c49a107da98914dcfaa3913e9aef2778cdec9106b"),
        3: ("af62c3e26ea5802173ff07dfe4118c938887246b0412f530f3a0db1337d3e5fd",
            "6d5612c68e4e304c6adaaa7888598400be19d74ad63ad879dfae1dc2550ed296"),
        4: ("9af78a0ef8d0a00938cf0d86ba571bf8c151dc6882fdfa1a906edf7bbec08c77",
            "148923cd8fdeddba90499836a07ee72e717fe4e3a14dfe4b097e36bcd84091e3"),
        64: ("2f51d90b5d04443a2b9692878a5d7973f81f15b9fb622505e34cf5a5ef8de0fb",
             "54947ea6ecaa8de695e5ce0e469f3a8722ce9e12aaa6a1d9e96638267643175d"),
    },
}
_STREAM_DIGESTS["baseline(X86_V2)"] = _STREAM_DIGESTS["X86_V3"]

#: ``emisim simulate`` on the bundled table, by name: its own flags, and the
#: output flags that ``emisim bands --input`` on its matrix takes as well
_CLI_RUNS = {
    "per-variable": (["--seed", "42"], []),
    "per-year-regression": (["--seed", "42", "--correlation", "per-year", "--model", "regression"],
                            []),
    # the clamped runs write zero cells and other short cells; --halfwidth-pct
    # takes a fraction of the mean, so their 3.0 is +-300%, not 3%
    "regression-3pct": (["--seed", "42", "--model", "regression", "--halfwidth-pct", "3.0"], []),
    "per-year-3pct": (["--seed", "7", "--correlation", "per-year", "--halfwidth-pct", "3.0",
                       "--realizations", "3000"], []),
    "per-year-regression-3pct": (["--seed", "7", "--correlation", "per-year", "--model",
                                  "regression", "--halfwidth-pct", "3.0", "--realizations",
                                  "3000"], []),
    "percentiles": (["--seed", "5"], ["--percentiles", "0.1,2.5,50,97.5,99.9"]),
    "json": (["--seed", "42"], ["--format", "json"]),
}

#: The manifest of each _CLI_RUNS entry, the same on every SIMD target: the
#: config fields that differ from _MANIFEST_CONFIG (a halfwidth stands for
#: every variable's), and the clamped draws and predictions
_MANIFEST_CONFIG = {"realizations": 10_000, "master_seed": 42, "ci_level": 0.99, "halfwidths": 0.1,
                    "correlation_mode": "per-variable", "percentiles": [5.0, 50.0, 95.0],
                    "model_kind": "implied_intensity"}
_CLI_MANIFESTS = {
    "per-variable": ({}, (0, 0)),
    "per-year-regression": ({"correlation_mode": "per-year", "model_kind": "linear_regression"},
                            (0, 17_732)),
    "regression-3pct": ({"halfwidths": 3.0, "model_kind": "linear_regression"}, (181_094, 65_217)),
    "per-year-3pct": ({"realizations": 3000, "master_seed": 7, "halfwidths": 3.0,
                       "correlation_mode": "per-year"}, (44_605, 0)),
    "per-year-regression-3pct": ({"realizations": 3000, "master_seed": 7, "halfwidths": 3.0,
                                  "correlation_mode": "per-year",
                                  "model_kind": "linear_regression"}, (54_177, 19_488)),
    "percentiles": ({"master_seed": 5, "percentiles": [0.1, 2.5, 50.0, 97.5, 99.9]}, (0, 0)),
    "json": ({}, (0, 0)),
}
#: sha256 of the bundled table2.csv, the input of every _CLI_RUNS entry
_TABLE_DIGEST = "28065a4eaa908d80ba320788ce4ceaa6aa1016cde17702e9702d4c60a924b206"


def _check_manifest(path, run):
    """The manifest of _CLI_RUNS entry ``run`` field by field, but for its
    time, its duration and its output paths."""
    manifest = json.loads(path.read_text())
    overrides, (draws, predictions) = _CLI_MANIFESTS[run]
    config = {**_MANIFEST_CONFIG, **overrides}
    config["halfwidths"] = dict.fromkeys(DRIVER_VARIABLES, config["halfwidths"])
    dispatch = opt_func_info(func_name="^(log|tan)$", signature="float64")
    assert sorted(manifest) == ["config", "counters", "created_utc", "duration_seconds",
                                "environment", "input_digests", "output_paths", "rng_stream",
                                "tool_version"]
    assert manifest["config"] == config
    assert manifest["counters"] == {"clamped_draws": draws, "clamped_predictions": predictions}
    assert (manifest["rng_stream"], manifest["tool_version"]) == ("splitmix-boxmuller-v2", "0.1.0")
    assert list(manifest["input_digests"].values()) == [_TABLE_DIGEST]
    assert manifest["environment"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "libc": " ".join(filter(None, platform.libc_ver())),
        "numpy_dispatch": {"log": {"dd": dispatch["log"]["dd"]["current"]},
                           "tan": {"dd": dispatch["tan"]["dd"]["current"]}},
    }


#: Command lines on the bundled table whose stdout is pinned, by name
_CLI_STDOUT_RUNS = {
    "simulate-stdout": ["simulate", "--seed", "42", "--realizations", "500"],
    "fit-regression": ["fit", "--model", "regression"],
}

#: By _LOG_TARGET and _CLI_RUNS name: the sha256 of the bands file (``--out``,
#: and ``emisim bands --input`` on the matrix) and of the ``--matrix-out``
#: matrix; by _CLI_STDOUT_RUNS name: the sha256 of the stdout
_CLI_DIGESTS = {
    "X86_V4": {
        "per-variable": ("0be8d0c78eec41e2e9d0877fb85fcb55d2373fa3d9fc8905bbff9a1ff1ea2c16",
                         "2f1bf7bf42c780834269dd963b0d064b6369ca1161de0836a783c9519dc5da7d"),
        "per-year-regression": (
            "655b72d6bd995170f6ed6a79fe5c6ae8bdcc4de9301a25c9d7456e245dfaf4a6",
            "2c8ceb24c69911dc93428122fbad4ffb184c93126a680adc3e6db86c050a418d"),
        "regression-3pct": (
            "29870d37e95c5cfaf000b418e6a1e5c2de06b7931cc6e9dd32739e68d53d9f90",
            "9b7b481e9d8d8eb71c23bdf754fb9613cc0eec5d72392e96e81c5d66d5fccf12"),
        "per-year-3pct": (
            "a688c2ef8c403fcd9c34ff95258205edabc45fcc38abedd906925c06af0ae05b",
            "f3a1c29bd021a89e07bd84dd8fbbc20b6bc9128b72f780a22b2270d8c2446557"),
        "per-year-regression-3pct": (
            "10969ebeede51e2b7814ba59617dfc0e12e6bb1332300ff0c054af96c29591cb",
            "eecd69581ff2dcda0b55b948aa0719547a22efe92ec4ccf75b7e3584ea3eab2c"),
        "percentiles": (
            "680b5d28e626255a8d8bbdd41aef73ebcad3798bf86517bf6bffd08f0a84b5c2",
            "8c2f8feadce888665bf2f49b7ed0b5c0cce269f5b2ef7355c15a91bd42f9a306"),
        "json": (
            "e097457d4e55800c12b80b351d407063cbc65ac7cc8194d6f7a73933e946558f",
            "2f1bf7bf42c780834269dd963b0d064b6369ca1161de0836a783c9519dc5da7d"),
        "simulate-stdout": "0473f5dcff7d4fb298a1312d7e3ececf1653e64515b743093d2a6685faf8a44f",
        "fit-regression": "d1ac0e971431d4005480ffaba2d3b2be68c9c669f3a75557fd667c66a55795de",
    },
    "X86_V3": {
        "per-variable": ("bca3b6b3efbf0aded35c5fbf112de97105ef67271839bd315a8cf311773d3140",
                         "3a7532ac8ff10b5b336d91e9ec04f9554519721392a09210fec95924458cb7ba"),
        "per-year-regression": (
            "655b72d6bd995170f6ed6a79fe5c6ae8bdcc4de9301a25c9d7456e245dfaf4a6",
            "0802b1cad6a878cbfaeb51f17b7f1042aac6d3bf6e0c2f5e4c3e45ce942417e5"),
        "regression-3pct": (
            "29870d37e95c5cfaf000b418e6a1e5c2de06b7931cc6e9dd32739e68d53d9f90",
            "aaf2e971fcd73104f1f779deafcd02c686108d2bcf29a82381ca0fbeaa29541a"),
        "per-year-3pct": (
            "a688c2ef8c403fcd9c34ff95258205edabc45fcc38abedd906925c06af0ae05b",
            "0632d2143e0621585256788ac076cc01b70158c9151e41099ff2a5b293ab2050"),
        "per-year-regression-3pct": (
            "10969ebeede51e2b7814ba59617dfc0e12e6bb1332300ff0c054af96c29591cb",
            "36f0dd0221fc492a8321959f0180f543269f6e7badb3ea584a47e5a49a40761a"),
        "percentiles": (
            "680b5d28e626255a8d8bbdd41aef73ebcad3798bf86517bf6bffd08f0a84b5c2",
            "77690288902957fcabe128772d609485e7b4b7348a74690f6473262a1d3d8f75"),
        "json": (
            "d9ca027642c9ce95228a862719bbb67a2ea429ff57f346138e22685f0d5780da",
            "3a7532ac8ff10b5b336d91e9ec04f9554519721392a09210fec95924458cb7ba"),
        "simulate-stdout": "0473f5dcff7d4fb298a1312d7e3ececf1653e64515b743093d2a6685faf8a44f",
        "fit-regression": "d1ac0e971431d4005480ffaba2d3b2be68c9c669f3a75557fd667c66a55795de",
    },
}
_CLI_DIGESTS["baseline(X86_V2)"] = _CLI_DIGESTS["X86_V3"]


# the case ids carry the X86_V4 v1 digests, as they have since v1
_PIN_IDS = {n: f"{n}-{v1}" for n, (_, v1) in _STREAM_DIGESTS["X86_V4"].items()}


@pytest.mark.parametrize("n_slots", list(_PIN_IDS), ids=list(_PIN_IDS.values()))
def test_standard_normals_bytes_are_pinned(n_slots):
    # the bytes of RNG_STREAM; run_simulation draws only even slot counts, so
    # the odd counts, whose last pair drops its sine, are pinned here
    assert _LOG_TARGET in _STREAM_DIGESTS, f"no stream digests recorded for {_LOG_TARGET} log"
    v2_digest, v1_digest = _STREAM_DIGESTS[_LOG_TARGET][n_slots]
    z = standard_normals(42, 5, 1029, n_slots)
    assert z.shape == (1024, n_slots) and z.dtype == np.float64
    assert hashlib.sha256(z.tobytes()).hexdigest() == v2_digest
    n_pairs = -(-n_slots // 2)
    r, v1 = _box_muller_oracle(*_pair_integers(42, 5 * n_pairs, 1029 * n_pairs))
    v1 = v1.reshape(2, 1024, n_pairs).transpose(1, 2, 0).reshape(1024, 2 * n_pairs)[:, :n_slots]
    assert hashlib.sha256(v1.tobytes()).hexdigest() == v1_digest
    r = np.repeat(r.reshape(1024, n_pairs), 2, axis=1)[:, :n_slots]
    assert np.all(np.abs(z - v1) <= 4.0 * _EPS * r)


@pytest.mark.parametrize("workers", ["1", "4"])
@pytest.mark.parametrize("run", list(_CLI_RUNS))
def test_cli_output_bytes_are_pinned(tmp_path, run, workers):
    assert _LOG_TARGET in _CLI_DIGESTS, f"no CLI digests recorded for {_LOG_TARGET} log"
    bands_digest, matrix_digest = _CLI_DIGESTS[_LOG_TARGET][run]
    flags, shared = _CLI_RUNS[run]
    table_csv = Path(emisim.__file__).parent / "data" / "table2.csv"
    out, matrix, again = tmp_path / "bands.csv", tmp_path / "matrix.csv", tmp_path / "again.csv"
    assert cli.main(["simulate", "--input", str(table_csv), "--out", str(out), "--matrix-out",
                     str(matrix), "--workers", workers, *flags, *shared]) == 0
    assert cli.main(["bands", "--input", str(matrix), "--out", str(again), *shared]) == 0
    got = [hashlib.sha256(path.read_bytes()).hexdigest() for path in (out, matrix, again)]
    assert got == [bands_digest, matrix_digest, bands_digest]
    _check_manifest(tmp_path / "bands.csv.manifest.json", run)


@pytest.mark.parametrize("run", list(_CLI_STDOUT_RUNS))
def test_cli_stdout_bytes_are_pinned(capsys, run):
    assert _LOG_TARGET in _CLI_DIGESTS, f"no CLI digests recorded for {_LOG_TARGET} log"
    table_csv = Path(emisim.__file__).parent / "data" / "table2.csv"
    assert cli.main([*_CLI_STDOUT_RUNS[run], "--input", str(table_csv)]) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == _CLI_DIGESTS[_LOG_TARGET][run]


@pytest.mark.parametrize("disabled", ["X86_V4", "X86_V4 X86_V3"])
def test_stream_pin_holds_on_other_log_targets(disabled):
    # numpy reads NPY_DISABLE_CPU_FEATURES once, at import, so the stream and
    # CLI pins run in a child process that dispatches log as a host without
    # AVX-512 (X86_V3) or without AVX2 either (the baseline) would
    repo = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_standard_normals_bytes_are_pinned",
         f"{__file__}::test_cli_output_bytes_are_pinned",
         f"{__file__}::test_cli_stdout_bytes_are_pinned"],
        capture_output=True, text=True, cwd=repo,
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"{len(_PIN_IDS) + 2 * len(_CLI_RUNS) + len(_CLI_STDOUT_RUNS)} passed" in proc.stdout


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
def test_standard_normals_match_box_muller_oracle(seed):
    # the uniforms rebuilt in Python integers (see _pair_integers)
    first = _splitmix64((seed + 0x9E3779B97F4A7C15) & _MASK64)
    assert ensemble._NormalKernel(seed, 2, 1).first == first
    n = 2048
    r, want = _box_muller_oracle(*_pair_integers(seed, 0, n))
    got = standard_normals(seed, 0, n, 2).T
    assert np.all(np.abs(got - want) <= 4.0 * _EPS * r)


@pytest.mark.parametrize("n_slots,rows,r,p0,p1", [
    (64, 16, 16, 0, 8),    # the first of four variables of 16 years
    (64, 16, 11, 24, 32),  # the last, in a ragged block
    (60, 9, 9, 7, 15),     # the second of 15 years, from a pair it shares
    (60, 9, 5, 22, 30),    # the last of 15 years, in a ragged block
    (4, 5, 5, 1, 2),       # one pair
    (3, 5, 4, 0, 2),       # all pairs of an odd slot count, the dropped sine too
])
def test_kernel_fills_a_range_of_pairs(n_slots, rows, r, p0, p1):
    # pairs p0 .. p1 - 1 of a block are columns 2 p0 .. 2 p1 - 1 of its
    # normals, whatever block the kernel computed before. 2 * n_pairs slots
    # read the same pair counters as n_slots, with an odd count's last sine
    kernel = ensemble._NormalKernel(5, n_slots, rows)
    for start in (0, 1_000_003):
        want = standard_normals(5, start, start + r, 2 * kernel.n_pairs).T
        kernel.fill(start + 7, rows)
        assert kernel.fill(start, r, p0, p1).tobytes() == want[2 * p0:2 * p1].tobytes()


def test_box_muller_edge_uniforms_give_finite_normals(monkeypatch):
    # m = 2**52 puts the tangent's argument at the double nearest pi / 2
    edges = np.array([0, 2**51, 2**52, 2**53 - 1], dtype=np.uint64)
    kernel = ensemble._NormalKernel(0, 2, 16)

    def every_pair_of_edges(state, scratch):  # row r: m1 = edges[r // 4], m2 = edges[r % 4]
        state[0, 0] = np.repeat(edges, 4) << np.uint64(11)
        state[1, 0] = np.tile(edges, 4) << np.uint64(11)

    monkeypatch.setattr(ensemble, "_splitmix64", every_pair_of_edges)
    out = kernel.fill(0, 16)
    assert np.isfinite(out).all()
    r, want = _box_muller_oracle(np.repeat(edges, 4), np.tile(edges, 4))
    assert np.all(np.abs(out - want) <= 4.0 * _EPS * r)
    # u2 = 0, 1/4 and 1/2: (cos, sin) = (1, 0), (~1e-16, 1) and (-1, ~1e-16)
    assert out[:, 0].tolist() == [r[0], 0.0]
    assert out[1, 1] == r[1] and abs(out[0, 1]) <= _EPS * r[1]
    assert out[0, 2] == -r[2] and abs(out[1, 2]) <= _EPS * r[2]


def test_standard_normals_distribution():
    draws = standard_normals(2024, 0, 50_000, 4).ravel()
    n = draws.size
    assert stats.kstest(draws, "norm").pvalue > 0.01
    assert abs(draws.mean()) <= 5.0 / math.sqrt(n)
    assert abs(draws.var() - 1.0) <= 5.0 * math.sqrt(2.0 / n)


def test_correlation_modes_differ(table):
    a = run_simulation(table, _config(correlation_mode=CorrelationMode.CORRELATED_PER_VARIABLE))
    b = run_simulation(table, _config(correlation_mode=CorrelationMode.INDEPENDENT_PER_YEAR))
    assert not np.array_equal(a.matrix, b.matrix)


# ---------------------------------------------------------------------------
# run_simulation
# ---------------------------------------------------------------------------

def test_run_simulation_shape_and_rerun_identity(table):
    cfg = _config(realizations=250)
    a = run_simulation(table, cfg)
    b = run_simulation(table, cfg)
    assert a.matrix.shape == (250, 16)
    assert np.array_equal(a.matrix, b.matrix)


def test_run_simulation_parallel_matches_serial(table):
    cfg = _config(realizations=500)
    serial = run_simulation(table, cfg, workers=1)
    parallel = run_simulation(table, cfg, workers=4)
    assert np.array_equal(serial.matrix, parallel.matrix)
    cfg_py = _config(realizations=500, correlation_mode=CorrelationMode.INDEPENDENT_PER_YEAR)
    assert np.array_equal(
        run_simulation(table, cfg_py, workers=1).matrix,
        run_simulation(table, cfg_py, workers=3).matrix,
    )


def test_larger_ensemble_keeps_the_rows_of_a_smaller_one(table):
    # realization i is row i of every ensemble with more than i realizations
    for mode in CorrelationMode:
        full = run_simulation(table, _config(realizations=20, correlation_mode=mode)).matrix
        for n in (1, 8, 19):
            prefix = run_simulation(table, _config(realizations=n, correlation_mode=mode)).matrix
            assert prefix.tobytes() == full[:n].tobytes()


def _tables(table):
    """The bundled table and its first 15 years: with an odd year count, the
    middle pair of a per-year row holds the last year of one variable and
    the first of the next."""
    return table, DriverTable.from_rows(table.rows[:15])


@pytest.mark.parametrize("mode", list(CorrelationMode))
@pytest.mark.parametrize("kind", list(ModelKind))
def test_row_blocks_do_not_change_results(table, monkeypatch, mode, kind):
    # draws are made in blocks of rows; blocks of 7 rows must give the bytes
    # of one block, across block edges and for a ragged last block. A block
    # has _BLOCK_ELEMS // max(2 * pairs, years) rows, for the most pairs the
    # kernel fills at once, read here from the fills of an unblocked run
    step = 7
    rows, pairs = [], []

    class Kernel(ensemble._NormalKernel):
        def fill(self, start, n, p0, p1):
            rows.append(n)
            pairs.append(p1 - p0)
            return super().fill(start, n, p0, p1)

    for years in _tables(table):
        n_years = len(years.years)
        for n in (1, step - 1, step, step + 1, 2 * step + 3):
            cfg = _config(realizations=n, correlation_mode=mode, model_kind=kind,
                          halfwidths=_uniform_halfwidths(3.0))
            with monkeypatch.context() as m:
                m.setattr(ensemble, "_NormalKernel", Kernel)
                pairs.clear()
                whole = run_simulation(years, cfg)
                m.setattr(ensemble, "_BLOCK_ELEMS", step * max(2 * max(pairs), n_years))
                rows.clear()
                blocked = run_simulation(years, cfg)
            assert max(rows) == min(n, step) and rows[-1] == n - (n - 1) // step * step
            assert blocked.matrix.tobytes() == whole.matrix.tobytes()
            assert blocked.clamped_draws == whole.clamped_draws
            assert blocked.clamped_predictions == whole.clamped_predictions
        assert whole.clamped_draws > 0


@pytest.mark.parametrize("mode", list(CorrelationMode))
@pytest.mark.parametrize("kind", list(ModelKind))
def test_config_strings_act_as_their_enums(table, mode, kind):
    by_enum = run_simulation(table, _config(correlation_mode=mode, model_kind=kind))
    by_string = run_simulation(table, _config(correlation_mode=mode.value, model_kind=kind.value))
    assert by_string.matrix.tobytes() == by_enum.matrix.tobytes()
    assert by_string.clamped_draws == by_enum.clamped_draws
    assert by_string.clamped_predictions == by_enum.clamped_predictions
    assert by_string.config.to_dict() == by_enum.config.to_dict()
    assert fit_model(table, kind.value).kind is kind


@pytest.mark.parametrize("mode", list(CorrelationMode))
@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("halfwidths", [
    _uniform_halfwidths(0.9),
    _uniform_halfwidths(3.0),
    # ai_share draws pass 1 and none falls below 0
    {"semis_twh": 3.0, "dc_twh": 0.1, "mix_factor": 0.1, "ai_share": 0.5},
], ids=["0.9", "3.0", "ai-share-above-one"])
def test_clamped_draws_count_every_read_variable(table, mode, kind, halfwidths):
    # the count the sampler reports, made here from the normals themselves: every
    # draw outside its variable's bounds, of the variables the model reads only;
    # semis_twh draws do leave their bounds, and the intensity model does not
    # read them. 4097 rows cross a block edge in both modes
    n = 4097
    cfg = _config(realizations=n, correlation_mode=mode, model_kind=kind, halfwidths=halfwidths)
    read = [DRIVER_VARIABLES.index(name) for name in READ_VARIABLES[kind]]
    for years in _tables(table):
        p = build_perturbations(years, cfg)
        n_slots = 4 * (len(years.years) if mode is CorrelationMode.INDEPENDENT_PER_YEAR else 1)
        draws = p.mean + standard_normals(42, 0, n, n_slots).reshape(n, 4, -1) * p.sigma
        out = (draws < p.lower[:, None]) | (draws > p.upper[:, None])
        assert out[:, 0].any()
        assert run_simulation(years, cfg).clamped_draws == np.count_nonzero(out[:, read])


@pytest.mark.parametrize("mode, kind, pairs", [
    (CorrelationMode.INDEPENDENT_PER_YEAR, ModelKind.IMPLIED_INTENSITY, {16: 24, 15: 23, 1: 2}),
    (CorrelationMode.INDEPENDENT_PER_YEAR, ModelKind.LINEAR_REGRESSION, {16: 32, 15: 30}),
    (CorrelationMode.CORRELATED_PER_VARIABLE, ModelKind.IMPLIED_INTENSITY, {16: 2, 15: 2, 1: 2}),
    (CorrelationMode.CORRELATED_PER_VARIABLE, ModelKind.LINEAR_REGRESSION, {16: 2, 15: 2}),
])
def test_kernel_computes_each_read_pair_once(table, monkeypatch, mode, kind, pairs):
    # Box-Muller pairs per realization: none for semis_twh alone, which the
    # intensity model does not read, and none twice where an odd year count
    # puts one pair across two variables
    computed = []

    class Kernel(ensemble._NormalKernel):
        def fill(self, start, n, p0, p1):
            computed.append((p1 - p0) * n)
            return super().fill(start, n, p0, p1)

    monkeypatch.setattr(ensemble, "_NormalKernel", Kernel)
    n = 5000
    for n_years, want in pairs.items():
        computed.clear()
        run_simulation(DriverTable.from_rows(table.rows[:n_years]),
                       _config(realizations=n, correlation_mode=mode, model_kind=kind))
        assert sum(computed) == want * n


class _ArgsModel:
    """A model with only ``kind`` and a ``predict_grid(*args)`` that
    forwards its arguments, as a benchmark's timing wrapper has."""

    def __init__(self, model):
        self.model = model
        self.kind = model.kind
        self.calls = []

    def predict_grid(self, *args):
        self.calls.append((args, self.model.predict_grid(*args)))
        return self.calls[-1][1]


@pytest.mark.parametrize("mode", list(CorrelationMode))
@pytest.mark.parametrize("kind", list(ModelKind))
def test_run_simulation_predicts_once_into_the_result_matrix(table, kind, mode):
    cfg = SimulationConfig(realizations=300, master_seed=3, model_kind=kind, correlation_mode=mode)
    wrapper = _ArgsModel(fit_model(table, kind))
    result = run_simulation(table, cfg, model=wrapper)
    [(args, returned)] = wrapper.calls
    # the output is written into the array passed as the sixth argument, `out`
    assert returned is result.matrix and len(args) == 6 and args[5] is returned
    assert result.matrix.size == 300 * len(table)
    assert result.matrix.tobytes() == run_simulation(table, cfg).matrix.tobytes()


@pytest.mark.parametrize("kind", list(ModelKind))
def test_run_simulation_peak_memory_is_bounded(table, kind):
    # the driver arrays the model reads (three for the intensity model, four
    # for the regression), the first of which the model overwrites with its
    # output, and the kernel's two buffers while a block of rows is drawn
    bound = {ModelKind.IMPLIED_INTENSITY: 3.30, ModelKind.LINEAR_REGRESSION: 4.30}[kind]
    for mode in CorrelationMode:
        cfg = SimulationConfig(realizations=50_000, master_seed=7, model_kind=kind,
                               correlation_mode=mode)
        tracemalloc.start()
        try:
            result = run_simulation(table, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * result.matrix.nbytes, mode


def test_single_deterministic_realization_is_observed_column(table):
    cfg = SimulationConfig(realizations=1, master_seed=0, halfwidths=_uniform_halfwidths(0.0))
    result = run_simulation(table, cfg)
    observed = np.asarray(table.column("co2_mt"))
    assert np.all(np.abs(result.matrix[0] - observed) / observed <= 1e-12)


def test_ensemble_mean_near_analytic_mean(table):
    # independent normal factors: E[kappa*dc*ai*mix] = kappa*E[dc]*E[ai]*E[mix],
    # so the ensemble mean at 2030 must stay near the observed 126.
    cfg = SimulationConfig(realizations=10_000, master_seed=42,
                           halfwidths=_uniform_halfwidths(0.05))
    result = run_simulation(table, cfg)
    year_idx = table.years.index(2030)
    assert result.matrix[:, year_idx].mean() == pytest.approx(126.0, rel=0.02)


def test_regression_model_ensemble(table):
    cfg = _config(model_kind=ModelKind.LINEAR_REGRESSION)
    result = run_simulation(table, cfg)
    assert np.all(result.matrix >= 0.0)


@pytest.mark.parametrize("mode", list(CorrelationMode))
def test_regression_bands_hold_the_exact_marginal_quantiles(table, mode):
    """Each year's regression output is max(X, 0) with X normal: mean
    b0 + sum b_k m_k and variance sum b_k**2 s_k**2 over the drivers, in
    either correlation mode, so its p-quantile is max(mu + sigma z_p, 0)
    exactly. With the default 10% halfwidths no draw reaches a driver bound.
    Each exact quantile must lie inside its 99.9% distribution-free interval
    between two order statistics, ranks from Binomial(N, p) (Conover,
    Practical Nonparametric Statistics, 3.2), and so must the band value.
    Not covered here: the intensity model, and halfwidths wide enough to
    clamp draws."""
    b = np.array(fit_model(table, ModelKind.LINEAR_REGRESSION).coefficients)
    means = np.array([table.column(v) for v in DRIVER_VARIABLES])
    mu = b[0] + b[1:] @ means
    sigma = np.sqrt(((b[1:, None] * 0.10 * means / stats.norm.ppf(0.995)) ** 2).sum(axis=0))
    percentiles, n, seeds = np.array([5.0, 50.0, 95.0]), 100_000, range(5)
    lo = stats.binom.ppf(0.0005, n, percentiles / 100.0).astype(int) - 1  # 0-based ranks
    hi = stats.binom.ppf(0.9995, n, percentiles / 100.0).astype(int)
    misses = {1.0: 0, 1.01: 0}  # the exact quantiles, and those of a sigma 1% too wide
    z = stats.norm.ppf(percentiles / 100.0)
    for seed in seeds:
        config = SimulationConfig(realizations=n, master_seed=seed, correlation_mode=mode,
                                  model_kind=ModelKind.LINEAR_REGRESSION)
        result = run_simulation(table, config)
        assert result.clamped_draws == 0
        columns = np.sort(result.matrix, axis=0)
        below, above = columns[lo].T, columns[hi].T  # (year, percentile)
        band = bands(result).levels
        assert np.all((below <= band) & (band <= above))
        for scale in misses:
            exact = np.maximum(mu[:, None] + scale * sigma[:, None] * z, 0.0)
            misses[scale] += int(np.count_nonzero((exact < below) | (exact > above)))
    # each interval misses with probability at most 0.001: allow the count
    # that Binomial(checks, 0.001) exceeds with probability 1e-5 or less
    allowed = stats.binom.isf(1e-5, len(seeds) * mu.size * percentiles.size, 0.001)
    assert misses[1.0] <= allowed < misses[1.01]


def test_ensemble_csv_roundtrip(table):
    result = run_simulation(table, _config(realizations=30))
    text = result.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(str(y) for y in table.years)
    parsed = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(parsed, result.matrix)


@pytest.mark.parametrize("mode", list(CorrelationMode))
@pytest.mark.parametrize("model", list(ModelKind))
def test_matrix_csv_reads_back_byte_for_byte(table, mode, model):
    result = run_simulation(table, _config(realizations=2000, correlation_mode=mode,
                                           model_kind=model))
    years, matrix = parse_matrix_csv_text(result.to_csv_text())
    assert years == table.years
    assert matrix.tobytes() == result.matrix.tobytes()


def test_ensemble_result_validates_matrix(table):
    cfg = _config(realizations=2)
    bad = np.array([[1.0] * 16, [-1.0] * 16])
    with pytest.raises(ValueError, match="negative emission values"):
        EnsembleResult(bad, table.years, cfg, 0, 0)
    # a non-finite value is reported first, even beside a negative one
    for value in (math.nan, math.inf, -math.inf):
        bad[0, 3] = value
        with pytest.raises(ValueError, match="non-finite emission values"):
            EnsembleResult(bad, table.years, cfg, 0, 0)
    assert EnsembleResult(np.full((2, 16), -0.0), table.years, cfg, 0, 0).matrix.shape == (2, 16)
    # a matrix of another shape than realizations x years
    for shape in ((3, 16), (2, 15)):
        with pytest.raises(ValueError, match="matrix shape does not match"):
            EnsembleResult(np.ones(shape), table.years, cfg, 0, 0)


@pytest.mark.parametrize("order", ["C", "F"])
def test_ensemble_result_names_the_first_bad_year_in_either_layout(table, order):
    cfg = _config(realizations=3)
    bad = np.ones((3, 16), order=order)
    bad[2, 9], bad[1, 5] = -2.0, -1.0
    with pytest.raises(ValueError, match=f"negative emission values in year {table.years[5]}$"):
        EnsembleResult(bad, table.years, cfg, 0, 0)
    # non-finite first, though a later year than the first negative one
    for value in (math.nan, -math.inf, math.inf):
        bad[0, 12], bad[2, 14] = value, math.inf
        with pytest.raises(ValueError,
                           match=f"non-finite emission values in year {table.years[12]}$"):
            EnsembleResult(bad, table.years, cfg, 0, 0)
    good = np.ones((3, 16), order=order)
    assert EnsembleResult(good, table.years, cfg, 0, 0).clamped_draws == 0
    good[1, 7] = math.inf  # the one bad value, the whole matrix's max
    with pytest.raises(ValueError, match=f"non-finite emission values in year {table.years[7]}$"):
        EnsembleResult(good, table.years, cfg, 0, 0)


# ---------------------------------------------------------------------------
# Percentile
# ---------------------------------------------------------------------------

def test_percentile_worked_examples():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert percentile(values, 50) == 30.0
    assert percentile(values, 5) == 12.0
    assert percentile(values, 95) == 48.0


def test_percentile_single_element_and_unsorted_input():
    assert percentile([7.0], 37.5) == 7.0
    assert percentile([50.0, 10.0, 30.0, 20.0, 40.0], 5) == 12.0


def test_percentile_errors():
    with pytest.raises(ValueError, match="percentile of empty list"):
        percentile([], 50)
    for p in (0.0, 100.0, -1.0, 101.0):
        with pytest.raises(ValueError):
            percentile([1.0], p)


def test_percentile_matches_oracles_on_short_lists():
    rng = np.random.RandomState(123)
    for n in range(1, 9):
        for _ in range(3):
            values = list(rng.uniform(0, 200, size=n))
            ranks = np.arange(n)
            sorted_values = np.sort(values)
            for p in range(1, 100):
                mine = percentile(values, p)
                # oracle 1: piecewise-linear inverse CDF via np.interp
                interp = float(np.interp(p / 100.0 * (n - 1), ranks, sorted_values))
                # oracle 2: numpy's linear-interpolation percentile
                ref = float(np.percentile(values, p))
                assert mine == pytest.approx(interp, abs=1e-9)
                assert mine == pytest.approx(ref, abs=1e-9)


# ---------------------------------------------------------------------------
# Bands
# ---------------------------------------------------------------------------

def test_bands_degenerate_sigma_collapse(table):
    cfg = _config(halfwidths=_uniform_halfwidths(0.0))
    result = run_simulation(table, cfg)
    b = bands(result)
    model_curve = predict_table(fit_implied_intensity(table), table).tolist()
    for i, (year, expected) in enumerate(zip(table.years, model_curve)):
        assert b.value(year, 5.0) == expected
        assert b.value(year, 50.0) == expected
        assert b.value(year, 95.0) == expected
        assert b.mean[i] == expected


def test_bands_monotone_across_percentiles(table):
    result = run_simulation(table, _config(realizations=2_000))
    b = bands(result)
    for year in table.years:
        assert b.value(year, 5.0) <= b.value(year, 50.0) <= b.value(year, 95.0)


def test_percentile_bands_reject_decreasing_levels():
    with pytest.raises(ValueError, match="non-decreasing in percentile"):
        PercentileBands((2020,), (5.0, 50.0), np.array([[2.0, 1.0]]), np.array([1.5]))


def test_bands_monotone_on_random_ensembles():
    rng = np.random.RandomState(99)
    for _ in range(200):
        n_real = rng.randint(1, 40)
        n_years = rng.randint(1, 6)
        matrix = rng.uniform(0, 500, size=(n_real, n_years))
        years = tuple(range(2020, 2020 + n_years))
        b = bands_from_matrix(matrix, years, (5.0, 50.0, 95.0))
        assert np.all(np.diff(b.levels, axis=1) >= 0.0)


def _type7(sorted_values, p):
    """Hyndman & Fan type 7 percentile of a sorted list, in scalar arithmetic."""
    rank = p / 100.0 * (len(sorted_values) - 1)
    lo = math.floor(rank)
    if lo + 1 == len(sorted_values):
        return sorted_values[lo]
    return sorted_values[lo] + (rank - lo) * (sorted_values[lo + 1] - sorted_values[lo])


def test_bands_do_not_depend_on_matrix_layout(table):
    cfg = _config(realizations=1_000, correlation_mode=CorrelationMode.INDEPENDENT_PER_YEAR)
    matrix = run_simulation(table, cfg).matrix
    ps = (5.0, 50.0, 95.0)
    # reference: each column sorted on its own, as one contiguous 1-D array
    columns = [np.sort(matrix[:, j]) for j in range(matrix.shape[1])]
    assert all(col[0] != col[-1] for col in columns)
    expected_mean = np.array([col.mean() for col in columns])
    expected_levels = np.array([[_type7(col.tolist(), p) for p in ps] for col in columns])
    c_order = np.ascontiguousarray(matrix)
    for layout in (c_order, np.asfortranarray(matrix), c_order[::-1]):
        b = bands_from_matrix(layout, table.years, ps)
        assert b.mean.tobytes() == expected_mean.tobytes()
        assert b.levels.tobytes() == expected_levels.tobytes()


def test_bands_stay_inside_extreme_scenario_envelope(table):
    cfg = SimulationConfig(realizations=10_000, master_seed=42)
    b = bands(run_simulation(table, cfg))
    for year in range(2030, 2036):
        assert b.value(year, 5.0) >= 35.0
        assert b.value(year, 95.0) <= 240.0


def test_seed_42_bands_are_pinned(table):
    # a change of the random stream (RNG_STREAM) must show up here
    b = bands(run_simulation(table, SimulationConfig(realizations=10_000, master_seed=42)))
    pinned = {
        2030: (112.27212200064794, 125.74910473868667, 139.87285353540113),
        2035: (109.59897623872772, 122.7550784353846, 136.54254749884393),
    }
    for year, levels in pinned.items():
        for p, want in zip((5.0, 50.0, 95.0), levels):
            assert b.value(year, p) == pytest.approx(want, rel=1e-9)


def test_readme_library_use_runs_as_written(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    p5, mean, p95 = map(float, capsys.readouterr().out.split())
    # the seed-42 run pinned above
    assert p5 == pytest.approx(112.27212200064794, rel=1e-9)
    assert p95 == pytest.approx(139.87285353540113, rel=1e-9)
    assert p5 < mean < p95


def test_package_exports_resolve():
    assert [name for name in emisim.__all__ if not hasattr(emisim, name)] == []


def test_widening_halfwidths_weakly_widen_bands(table):
    widths = {}
    for hw in (0.05, 0.10, 0.15):
        cfg = SimulationConfig(realizations=10_000, master_seed=42,
                               halfwidths=_uniform_halfwidths(hw))
        b = bands(run_simulation(table, cfg))
        widths[hw] = [b.value(y, 95.0) - b.value(y, 5.0) for y in table.years]
    for small, big in ((0.05, 0.10), (0.10, 0.15)):
        assert all(w2 >= w1 for w1, w2 in zip(widths[small], widths[big]))


def test_bands_mean_overflow_names_the_first_year():
    # finite columns whose sum overflows; a column that is not finite is
    # refused before any mean is taken
    matrix = np.array([[1.0, 1e308, 1e308, np.inf], [2.0, 1.5e308, 1.5e308, 1.0]])
    with pytest.raises(OverflowError, match="year 2021"):
        bands_from_matrix(matrix[:, :3], (2020, 2021, 2022), (50.0,))
    with pytest.raises(ValueError, match="non-finite emission values in year 2023"):
        bands_from_matrix(matrix[:, [0, 3]], (2020, 2023), (50.0,))


def test_bands_need_one_year_per_matrix_column():
    for years in ((2020,), (2020, 2021, 2022, 2023)):
        with pytest.raises(ValueError, match=f"{len(years)} years for 3 matrix columns"):
            bands_from_matrix(np.ones((2, 3)), years, (50.0,))


def test_bands_empty_ensemble():
    with pytest.raises(ValueError, match="cannot take percentiles of an empty ensemble"):
        bands_from_matrix(np.empty((0, 3)), (2020, 2021, 2022), (5.0, 50.0, 95.0))


@pytest.mark.parametrize(
    "percentiles,fault",
    [([-5.0], "percentile -5.0 outside (0, 100)"),
     ([150.0], "percentile 150.0 outside (0, 100)"),
     ([95.0, 5.0], "percentiles must be strictly increasing")],
)
def test_bands_rejects_bad_percentiles(table, percentiles, fault):
    result = run_simulation(table, _config(realizations=100))
    with pytest.raises(ValueError) as exc:
        bands(result, percentiles)
    assert str(exc.value) == fault


def test_bands_refuse_values_no_emission_takes():
    # every value that reaches a band is finite and at least 0
    years = (2020, 2021, 2022)
    for value in (np.nan, np.inf, -np.inf, -1.0):
        matrix = np.ones((3, 3))
        matrix[1, 1] = value
        fault = "negative" if value == -1.0 else "non-finite"
        with pytest.raises(ValueError, match=f"{fault} emission values in year 2021"):
            bands_from_matrix(matrix, years, (50.0,))
        with pytest.raises(ValueError, match=f"{fault} emission values"):
            percentile(matrix[:, 1].tolist(), 50.0)
    # a non-finite value is reported before a negative one, even in a later year
    matrix = np.array([[-1.0, 1.0, np.nan], [1.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite emission values in year 2022"):
        bands_from_matrix(matrix, years, (50.0,))
    with pytest.raises(ValueError, match="non-finite emission values"):
        percentile([-1.0, np.inf], 50.0)
    # -0.0 is an emission
    b = bands_from_matrix(np.full((2, 3), -0.0), years, (5.0, 95.0))
    assert b.levels.tolist() == [[0.0, 0.0]] * 3 and b.mean.tolist() == [0.0] * 3
    assert percentile([-0.0, -0.0], 50.0) == 0.0
    # the largest step gives finite levels, and no warning
    column = [0.0, 1.7976931348623157e308]
    b = bands_from_matrix(np.array(column)[:, None], (2020,), (5.0, 50.0, 95.0))
    assert b.levels[0].tolist() == [_type7(column, p) for p in (5.0, 50.0, 95.0)]
    assert np.isfinite(b.levels).all()
    assert b.mean.tolist() == [8.988465674311579e307]


# Integers and one division: the band bytes depend on IEEE arithmetic alone,
# not on libm, so they hold on every machine.
_INTEGER_MATRIX = ((np.arange(16000) * 7919) % 1009).reshape(1000, 16) / 7.0


@pytest.mark.parametrize(
    "percentiles,digest",
    [((5.0, 50.0, 95.0), "c195888355f538b6f643406f97da20d9ad6cda4278cf51e4fc2040ac937ad1bb"),
     ((0.1, 2.5, 50.0, 97.5, 99.9),
      "16c550c3861d56024835212e487c913c98b4ca5cc98ca2c1029e075bc15756a0")],
)
def test_band_bytes_are_pinned(percentiles, digest):
    text = bands_from_matrix(_INTEGER_MATRIX, range(2020, 2036), percentiles).to_csv_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# The matrix CSV of _INTEGER_MATRIX with edge cells in its first row: zero,
# the smallest subnormal, the neighbours of 1e-3 and of 1e15 (where repr
# switches notation), a power of two, 0.1, 1/3 and the largest double.
_EDGE_CELLS = [0.0, 5e-324, math.nextafter(1e-3, -math.inf), math.nextafter(1e-3, math.inf),
               math.nextafter(1e15, -math.inf), math.nextafter(1e15, math.inf), 2.0**52, 0.1, 1 / 3,
               1.7976931348623157e308]


def test_matrix_csv_bytes_are_pinned():
    matrix = _INTEGER_MATRIX.copy()
    matrix[0, :len(_EDGE_CELLS)] = _EDGE_CELLS
    result = EnsembleResult(matrix, tuple(range(2020, 2036)), _config(realizations=1000), 0, 0)
    text = result.to_csv_text()
    assert text.split("\n")[1].startswith(
        "0.0,5e-324,0.0009999999999999998,0.0010000000000000002,999999999999999.9,"
        "1000000000000000.1,4503599627370496.0,0.1,0.3333333333333333,1.7976931348623157e+308,")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e56a4ad4b43a9a0613b5d3e2635de03446b273ba4360203523cf99b5c0591ec2")


@pytest.mark.parametrize("percentiles, header", [
    ((5.0, 5.0000001), "p5,p5.0000001"),
    ((1e-320, 50.0), "p1e-320,p50"),
    ((0.1, 2.5, 50.0, 97.5, 99.9), "p0.1,p2.5,p50,p97.5,p99.9"),
    ((33.333333333333336, 99.99999), "p33.333333333333336,p99.99999"),
])
def test_band_labels_are_distinct_and_read_back(percentiles, header):
    # ":g" keeps six digits: it wrote p5,p5 for 5 and 5.0000001, and
    # p9.99989e-321 for 1e-320
    text = bands_from_matrix(_INTEGER_MATRIX[:, :1], (2020,), percentiles).to_csv_text()
    labels = text.split("\n")[0].split(",")[2:]
    assert ",".join(labels) == header
    assert [float(label[1:]) for label in labels] == list(percentiles)
    assert len(set(labels)) == len(labels)


def test_bands_csv_layout(table):
    b = bands(run_simulation(table, _config(realizations=50)))
    lines = b.to_csv_text().strip().split("\n")
    assert lines[0] == "year,mean,p5,p50,p95"
    assert len(lines) == 17
    first = lines[1].split(",")
    assert first[0] == "2020"
    assert len(first) == 5
