import hashlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.introspect import opt_func_info

from emisim import cli
from emisim.cli import build_parser, main
from emisim.core import SimulationConfig
from emisim.ensemble import bands, bands_from_matrix, run_simulation
from emisim.ingest import InferenceTask, parse_driver_csv

SRC = Path(__file__).resolve().parent.parent / "src"
DATA_DIR = SRC / "emisim" / "data"
TABLE = str(DATA_DIR / "table2.csv")
BUNDLE = str(DATA_DIR / "ai_co2_scenarios.json")


def _run_python(*args, cwd=None, **env):
    """``python *args`` in a child process that imports this checkout, run
    in ``cwd`` with ``env`` added to the environment."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, **env, "PYTHONPATH": path})


def _run_emisim(*argv, cwd=None, **env):
    """``python -m emisim`` in a child process that imports this checkout."""
    return _run_python("-m", "emisim", *argv, cwd=cwd, **env)


# How stderr starts for each failing exit code: the type of a failure is its
# kind, and the kind decides the code.
_FIRST_LINE = {
    1: r"usage: ",
    2: r"error: (ValueError|SchemaError|DriverTableError|MemoryError): ",
    3: r"I/O error: ",
    4: r"error: (OverflowError|ZeroDivisionError|ArithmeticError): ",
}


def _assert_first_line(code, stderr):
    assert re.match(_FIRST_LINE[code], stderr), stderr


def _assert_clean_failure(proc, code):
    """Exit ``code`` without a traceback, with the first stderr line of that
    code, and one stderr line for exit 2."""
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    _assert_first_line(code, proc.stderr)
    if code == 2:
        assert len(proc.stderr.strip().splitlines()) == 1


def _read_rows(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# validate / fit / emissions / mean
# ---------------------------------------------------------------------------

def test_validate_ok(capsys):
    assert main(["validate", "--input", TABLE]) == 0
    assert "OK: 16 rows, years 2020-2035" in capsys.readouterr().out


def test_validate_bad_table(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("year,semis_twh,dc_twh,mix_factor,ai_share,co2_mt\n2020,91,269,1.3,0.02,1.03\n")
    assert main(["validate", "--input", str(bad)]) == 2
    assert "DriverTableError" in capsys.readouterr().err


def test_missing_input_file_is_io_error(tmp_path):
    assert main(["validate", "--input", str(tmp_path / "nope.csv")]) == 3


def test_degenerate_fit_is_numeric_error(tmp_path, capsys):
    # ai_share of zero is a valid table value but the intensity fit divides by it
    degenerate = tmp_path / "degenerate.csv"
    degenerate.write_text(
        "year,semis_twh,dc_twh,mix_factor,ai_share,co2_mt\n"
        "2020,91,269,0.62,0,1.03\n"
    )
    assert main(["fit", "--input", str(degenerate)]) == 4
    assert "ZeroDivisionError" in capsys.readouterr().err


def test_usage_errors_exit_1():
    assert main(["no-such-command"]) == 1
    assert main(["validate"]) == 1  # missing --input
    # number flags take neither digit-group underscores nor non-ASCII digits
    assert main(["equiv", "1_0"]) == 1
    assert main(["project", "--base", "1", "--rate", "0.1", "--years", "1_0"]) == 1
    assert main(["project", "--base", "\u0661", "--doubling-months", "1", "--horizon", "1"]) == 1
    assert main(["inference-energy", "text_generation", "--count", "1_0"]) == 1


def test_fit_intensity_json(tmp_path):
    out = tmp_path / "model.json"
    assert main(["fit", "--input", TABLE, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "implied_intensity"
    kappa = dict((int(y), v) for y, v in doc["kappa"])
    assert kappa[2030] == pytest.approx(0.43726, abs=5e-6)
    pinned = [
        0.30879002278450657, 0.3898305084745763, 0.3526793357301832, 0.36784545094794396,
        0.36456190867955574, 0.3926092482158568, 0.38111888111888115, 0.3914132379248659,
        0.41484953925773044, 0.4263304979295432, 0.43725677591839546, 0.4468067549974795,
        0.4571775773570269, 0.47740047740047736, 0.49083437787756723, 0.5073051948051948,
    ]
    assert list(kappa) == list(range(2020, 2036))
    assert list(kappa.values()) == pytest.approx(pinned, rel=1e-9)
    assert doc["diagnostics"]["kappa_min"] == pytest.approx(min(pinned), rel=1e-9)
    assert doc["diagnostics"]["kappa_max"] == pytest.approx(max(pinned), rel=1e-9)


def test_fit_regression_json(tmp_path):
    out = tmp_path / "model.json"
    assert main(["fit", "--input", TABLE, "--model", "regression", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "linear_regression"
    assert len(doc["coefficients"]) == 5
    assert "residual_sum_of_squares" in doc["diagnostics"]
    # intercept, then semis_twh, dc_twh, mix_factor and ai_share
    pinned = [-104.62095880421987, -0.39337255707961594, 0.23662800624543043,
              118.05499073671433, 67.44855758896458]
    assert doc["coefficients"] == pytest.approx(pinned, rel=1e-9)
    assert doc["diagnostics"]["residual_sum_of_squares"] == pytest.approx(277.6318757550938,
                                                                          rel=1e-9)
    assert doc["diagnostics"]["max_abs_residual"] == pytest.approx(7.804769713291265, rel=1e-9)


def test_emissions_from_driver_table_reproduces_observed(tmp_path):
    out = tmp_path / "emissions.csv"
    assert main(["emissions", "--input", TABLE, "--out", str(out)]) == 0
    header, rows = _read_rows(out)
    assert header == ["year", "mean"]
    observed = {2030: 126.0, 2035: 123.0}
    for row in rows:
        year = int(row[0])
        if year in observed:
            assert float(row[1]) == pytest.approx(observed[year], rel=1e-9)


def test_emissions_from_bundle_has_mean_column(tmp_path):
    out = tmp_path / "emissions.csv"
    assert main(["emissions", "--input", BUNDLE, "--out", str(out)]) == 0
    header, rows = _read_rows(out)
    assert header[0] == "year" and header[-1] == "mean"
    assert len(header) == 6  # four scenarios + year + mean
    final = rows[-1]
    assert final[0] == "2035"
    assert float(final[-1]) == 126.25


@pytest.mark.parametrize("model", ["intensity", "regression"])
def test_emissions_from_driver_table_json_matches_csv(tmp_path, model):
    # a JSON document without a "trajectories" key is a driver table
    header, rows = _read_rows(TABLE)
    doc = {"rows": [{k: (int if k == "year" else float)(v) for k, v in zip(header, row)}
                    for row in rows]}
    table_json = tmp_path / "table.json"
    table_json.write_text(json.dumps(doc))
    from_csv, from_json = tmp_path / "csv.out", tmp_path / "json.out"
    assert main(["emissions", "--input", TABLE, "--model", model, "--out", str(from_csv)]) == 0
    assert main(["emissions", "--input", str(table_json), "--model", model,
                 "--out", str(from_json)]) == 0
    assert from_json.read_bytes() == from_csv.read_bytes()
    if model == "intensity":
        assert _sha256(from_json) == (
            "df9a5127881353bfb2fe155feed4669ff6e9e33b55387265059d6f7dfded91c1")


def test_driver_table_json_names_the_row_that_misses_a_key(tmp_path, capsys):
    header, rows = _read_rows(TABLE)
    doc = [{k: (int if k == "year" else float)(v) for k, v in zip(header, row)}
           for row in rows[:3]]
    del doc[1]["co2_mt"]
    # the second row on file line 3, and all rows on one line: the error
    # names the file and the row, not a line; a document without rows has
    # no line at fault either
    missing = "ValueError: row 2 is missing key(s) co2_mt"
    texts = {"rows.json": ('{"rows": [\n' + ",\n".join(map(json.dumps, doc)) + "\n]}\n", missing),
             "array.json": (json.dumps(doc), missing),
             "empty.json": ('{"rows": []}', "ValueError: no data rows")}
    for name, (text, reason) in texts.items():
        path = tmp_path / name
        path.write_text(text)
        assert main(["emissions", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: ValueError: bad content in {path}: {reason}\n"


def test_emissions_empty_bundle(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text('{"trajectories": []}')
    assert main(["emissions", "--input", str(empty)]) == 2
    assert "ValueError" in capsys.readouterr().err


def test_mean_subcommand(tmp_path):
    out = tmp_path / "mean.csv"
    assert main(["mean", "--input", BUNDLE, "--out", str(out)]) == 0
    header, rows = _read_rows(out)
    assert header == ["year", "value"]
    assert float(rows[-1][1]) == 126.25


def test_mean_writes_the_digits_of_the_emissions_mean_column(tmp_path):
    mean, emissions = tmp_path / "mean.csv", tmp_path / "emissions.csv"
    assert main(["mean", "--input", BUNDLE, "--out", str(mean)]) == 0
    assert main(["emissions", "--input", BUNDLE, "--out", str(emissions)]) == 0
    header, rows = _read_rows(emissions)
    assert header[-1] == "mean"
    assert _read_rows(mean)[1] == [[row[0], row[-1]] for row in rows]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _simulate(tmp_path, name, *extra):
    out = tmp_path / name
    code = main(["simulate", "--input", TABLE, "--seed", "42", "--out", str(out), *extra])
    assert code == 0
    return out


def test_simulate_deterministic_across_runs_and_workers(tmp_path):
    a = _simulate(tmp_path, "a.csv")
    b = _simulate(tmp_path, "b.csv")
    c = _simulate(tmp_path, "c.csv", "--workers", "4")
    assert _sha256(a) == _sha256(b) == _sha256(c)


def test_simulate_writes_manifest(tmp_path):
    out = _simulate(tmp_path, "bands.csv", "--realizations", "100")
    manifest = json.loads((tmp_path / "bands.csv.manifest.json").read_text())
    assert manifest["config"]["master_seed"] == 42
    assert manifest["config"]["realizations"] == 100
    assert manifest["config"]["halfwidths"]["dc_twh"] == 0.10
    assert TABLE in manifest["input_digests"]
    assert manifest["input_digests"][TABLE] == _sha256(TABLE)
    assert str(out) in manifest["output_paths"]
    assert manifest["tool_version"]


def test_simulate_manifest_records_stream_and_environment(tmp_path):
    _simulate(tmp_path, "bands.csv", "--realizations", "10")
    manifest = json.loads((tmp_path / "bands.csv.manifest.json").read_text())
    assert manifest["rng_stream"] == "splitmix-boxmuller-v2"
    dispatch = opt_func_info(func_name="^(log|tan)$", signature="float64")
    assert manifest["environment"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "libc": " ".join(filter(None, platform.libc_ver())),
        "numpy_dispatch": {"log": {"dd": dispatch["log"]["dd"]["current"]},
                           "tan": {"dd": dispatch["tan"]["dd"]["current"]}},
    }


@pytest.mark.parametrize("model", ["regression", "intensity"])
def test_simulate_manifest_records_clamp_counters(tmp_path, capsys, model):
    matrix_out = tmp_path / "m.csv"
    out = _simulate(tmp_path, "bands.csv", "--realizations", "2000", "--model", model,
                    "--halfwidth-pct", "3.0", "--matrix-out", str(matrix_out))
    manifest = json.loads((tmp_path / "bands.csv.manifest.json").read_text())
    result = run_simulation(parse_driver_csv(TABLE), SimulationConfig.from_dict(manifest["config"]))
    assert manifest["counters"] == {"clamped_draws": result.clamped_draws,
                                    "clamped_predictions": result.clamped_predictions}
    assert result.clamped_draws > 0
    assert (result.clamped_predictions > 0) == (model == "regression")
    # the counters change no output byte
    assert capsys.readouterr().out == ""
    assert out.read_text() == bands(result).to_csv_text()
    assert matrix_out.read_text() == result.to_csv_text()


def test_environment_of_an_unnamed_libc_is_empty(monkeypatch):
    monkeypatch.setattr(platform, "libc_ver", lambda: ("", ""))
    assert cli._environment.__wrapped__()["libc"] == ""


def test_simulate_manifest_starts_no_process(tmp_path):
    # nor do the readers load the csv module, whose dialect is not theirs
    matrix = str(tmp_path / "m.csv")
    runs = [["validate", "--input", TABLE],
            ["simulate", "--input", TABLE, "--realizations", "10", "--out", str(tmp_path / "b.csv"),
             "--matrix-out", matrix],
            ["bands", "--input", matrix, "--out", str(tmp_path / "r.csv")]]
    proc = _run_python("-c", "import sys; from emisim.cli import main; "
                             f"runs = [(main(argv), 'csv' in sys.modules) for argv in {runs!r}]; "
                             "print(runs, 'subprocess' in sys.modules, '_hashlib' in sys.modules)")
    assert proc.stdout.splitlines()[-1] == "[(0, False), (0, False), (0, False)] False False", \
        proc.stderr


def test_manifest_digests_without_the_builtin_sha256(tmp_path):
    out = tmp_path / "b.csv"
    argv = ["simulate", "--input", TABLE, "--realizations", "10", "--out", str(out)]
    hide = 'sys.modules["_sha2"] = sys.modules["_sha256"] = None'
    proc = _run_python("-c", f"import hashlib, sys; {hide}; import emisim.cli as cli; "
                             f"print(cli.sha256 is hashlib.sha256, cli.main({argv!r}))")
    assert proc.stdout.splitlines()[-1] == "True 0", proc.stderr
    manifest = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    assert manifest["input_digests"] == {TABLE: _sha256(TABLE)}


def test_simulate_zero_halfwidth_collapses_bands(tmp_path):
    out = _simulate(tmp_path, "flat.csv", "--halfwidth-pct", "0", "--realizations", "50")
    header, rows = _read_rows(out)
    assert header == ["year", "mean", "p5", "p50", "p95"]
    for row in rows:
        assert row[1] == row[2] == row[3] == row[4]


def test_simulate_band_envelope(tmp_path):
    out = _simulate(tmp_path, "bands.csv")
    _, rows = _read_rows(out)
    for row in rows:
        if 2030 <= int(row[0]) <= 2035:
            assert float(row[2]) >= 35.0
            assert float(row[4]) <= 240.0


def test_simulate_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("EMISIM_SEED", "42")
    out_env = tmp_path / "env.csv"
    assert main(["simulate", "--input", TABLE, "--out", str(out_env)]) == 0
    out_flag = tmp_path / "flag.csv"
    assert main(["simulate", "--input", TABLE, "--seed", "42", "--out", str(out_flag)]) == 0
    assert _sha256(out_env) == _sha256(out_flag)
    # --seed supersedes the environment
    monkeypatch.setenv("EMISIM_SEED", "1")
    out_override = tmp_path / "override.csv"
    assert main(["simulate", "--input", TABLE, "--seed", "42", "--out", str(out_override)]) == 0
    assert _sha256(out_override) == _sha256(out_flag)


def test_simulate_config_file_precedence(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "realizations": 60,
        "master_seed": 7,
        "halfwidths": dict.fromkeys(["semis_twh", "dc_twh", "mix_factor", "ai_share"], 0.05),
    }))
    out = tmp_path / "bands.csv"
    assert main(["simulate", "--input", TABLE, "--config", str(cfg),
                 "--realizations", "20", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "bands.csv.manifest.json").read_text())
    assert manifest["config"]["realizations"] == 20  # flag beats file
    assert manifest["config"]["master_seed"] == 7    # file beats default
    assert manifest["config"]["halfwidths"]["ai_share"] == 0.05


def test_simulate_config_file_beats_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("EMISIM_SEED", "1")
    cfg = tmp_path / "config.json"
    for name, doc, seed in (("a.csv", {"realizations": 20, "master_seed": 7}, 7),
                            ("b.csv", {"realizations": 20}, 1)):
        cfg.write_text(json.dumps(doc))
        argv = ["simulate", "--input", TABLE, "--config", str(cfg), "--out", str(tmp_path / name)]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        assert manifest["config"]["master_seed"] == seed


_DC_SERIES = {"unit": "TWh", "points": [[y, 40.0] for y in range(2020, 2036)]}


@pytest.mark.parametrize(
    "flags",
    [
        [],
        ["--correlation", "per-year", "--model", "regression", "--ci-level", "0.95",
         "--percentiles", "10,50,90"],
    ],
    ids=["per-variable-intensity", "per-year-regression-series"],
)
def test_simulate_manifest_config_replays_run(tmp_path, flags):
    hw = tmp_path / "halfwidths.json"
    hw.write_text(json.dumps(
        {"semis_twh": 0.2, "dc_twh": _DC_SERIES, "mix_factor": 0.1, "ai_share": 0.3}
    ))
    if flags:
        flags = flags + ["--halfwidths", str(hw)]
    first = _simulate(tmp_path, "first.csv", "--realizations", "300", *flags)
    manifest = json.loads((tmp_path / "first.csv.manifest.json").read_text())
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(manifest["config"]))
    replay = tmp_path / "replay.csv"
    assert main(["simulate", "--input", TABLE, "--config", str(cfg), "--out", str(replay)]) == 0
    assert _sha256(replay) == _sha256(first)
    replayed = json.loads((tmp_path / "replay.csv.manifest.json").read_text())
    assert replayed["config"] == manifest["config"]


@pytest.mark.parametrize(
    "doc,named",
    [({"realisations": 5}, "'realisations'"), ({"master_seed": "x"}, "master_seed"),
     ({"seed": 7}, "'seed'"), ({"halfwidth_pct": 0.05}, "'halfwidth_pct'")],
)
def test_simulate_config_rejects_unknown_and_non_integer_keys(tmp_path, doc, named):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    proc = _run_emisim("simulate", "--input", TABLE, "--config", str(cfg))
    _assert_clean_failure(proc, 2)
    assert named in proc.stderr
    assert proc.stdout == ""


def test_simulate_halfwidths_file(tmp_path):
    hw = tmp_path / "halfwidths.json"
    hw.write_text(json.dumps({
        "semis_twh": 0.1,
        "dc_twh": {"unit": "TWh", "points": [[y, 40.0] for y in range(2020, 2036)]},
        "mix_factor": 0.1,
        "ai_share": 0.1,
    }))
    out = tmp_path / "bands.csv"
    assert main(["simulate", "--input", TABLE, "--seed", "1", "--halfwidths", str(hw),
                 "--realizations", "50", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "bands.csv.manifest.json").read_text())
    assert manifest["config"]["halfwidths"]["dc_twh"]["points"][0] == [2020, 40.0]


def test_simulate_json_format(tmp_path, capsys):
    out = tmp_path / "bands.json"
    argv = ["simulate", "--input", TABLE, "--seed", "42", "--realizations", "50", "--format", "json"]
    assert main(argv + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["years"][0] == 2020
    assert doc["percentiles"] == [5.0, 50.0, 95.0]
    capsys.readouterr()
    # without --out the same JSON goes to stdout
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert json.loads(stdout) == doc
    assert stdout == out.read_text()


def test_simulate_out_keeps_stdout_for_data(tmp_path, capsys):
    out, matrix = tmp_path / "bands.csv", tmp_path / "matrix.csv"
    assert main(["simulate", "--input", TABLE, "--seed", "1", "--realizations", "50",
                 "--out", str(out), "--matrix-out", str(matrix)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"simulated 50 realizations over 16 years (clamped draws: 0); wrote {out}, {matrix}"]


def test_simulate_percentiles_flag(tmp_path):
    out = tmp_path / "bands.csv"
    assert main(["simulate", "--input", TABLE, "--seed", "1", "--realizations", "50",
                 "--percentiles", "10,90", "--out", str(out)]) == 0
    header, _ = _read_rows(out)
    assert header == ["year", "mean", "p10", "p90"]


def test_simulate_ci_level_and_correlation_flags(tmp_path):
    default = _simulate(tmp_path, "default.csv", "--realizations", "200")
    wide_ci = _simulate(tmp_path, "ci95.csv", "--realizations", "200", "--ci-level", "0.95")
    per_year = _simulate(tmp_path, "py.csv", "--realizations", "200", "--correlation", "per-year")
    # same halfwidth at a lower level means a larger sigma, so wider bands
    _, rows_default = _read_rows(default)
    _, rows_wide = _read_rows(wide_ci)
    for d, w in zip(rows_default, rows_wide):
        assert float(w[4]) - float(w[2]) >= float(d[4]) - float(d[2])
    assert _sha256(per_year) != _sha256(default)
    manifest = json.loads((tmp_path / "ci95.csv.manifest.json").read_text())
    assert manifest["config"]["ci_level"] == 0.95


def test_fit_to_stdout(capsys):
    assert main(["fit", "--input", TABLE, "--model", "regression"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "linear_regression"


def test_mean_json_format(tmp_path):
    out = tmp_path / "mean.json"
    assert main(["mean", "--input", BUNDLE, "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["unit"] == "MtCO2"
    assert doc["points"][-1] == [2035, 126.25]


def test_simulate_no_partial_output_on_failure(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("year,semis_twh,dc_twh,mix_factor,ai_share,co2_mt\n2020,91,269,0.62,0.02,-5\n")
    out = tmp_path / "bands.csv"
    assert main(["simulate", "--input", str(bad), "--out", str(out)]) == 2
    assert not out.exists()
    assert not list(tmp_path.glob("*.tmp"))


_MALFORMED_JSON = '{"seed": 1,'


@pytest.mark.parametrize(
    "files,flags,code",
    [
        ({}, ["--halfwidth-pct", "nan"], 2),
        ({}, ["--halfwidth-pct", "inf"], 2),
        ({"cfg.json": _MALFORMED_JSON}, ["--config", "cfg.json"], 2),
        ({"cfg.json": "[1, 2]"}, ["--config", "cfg.json"], 2),
        ({"cfg.json": '{"seed": "x"}'}, ["--config", "cfg.json"], 2),
        ({"cfg.json": '{"halfwidths": {"dc_twh": {"points": 3}}}'}, ["--config", "cfg.json"], 2),
        ({"hw.json": _MALFORMED_JSON}, ["--halfwidths", "hw.json"], 2),
        ({"hw.json": '{"dc_twh": {"unit": "parsec", "points": []}}'}, ["--halfwidths", "hw.json"], 2),
        ({"hw.json": '{"dc_twh": {"unit": "TWh"}}'}, ["--halfwidths", "hw.json"], 2),
        ({}, ["--workers", "0"], 1),
        ({}, ["--workers", "-3"], 1),
        ({}, ["--percentiles", "150"], 2),
        ({}, ["--percentiles", "abc"], 1),
        ({}, ["--halfwidth-pct", "30"], 2),
        # int() and float() read digit-group underscores and non-ASCII digits
        ({}, ["--realizations", "abc"], 1),
        ({}, ["--realizations", "1_0"], 1),
        ({}, ["--percentiles", "5_0"], 1),
        ({}, ["--ci-level", "0.9_9"], 1),
        ({}, ["--percentiles", "\u0665\u0660"], 1),
        ({}, ["--seed", "\u0664\u0662"], 1),
        ({}, ["--halfwidth-pct", "0.1_0"], 1),
        # (1 + level) / 2 rounds to 0.5, so z would be 0
        ({}, ["--ci-level", "1e-320"], 2),
    ],
)
def test_simulate_malformed_input_exit_codes(tmp_path, files, flags, code):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    flags = [str(tmp_path / f) if f in files else f for f in flags]
    proc = _run_emisim("simulate", "--input", TABLE, "--realizations", "10",
                       "--out", str(tmp_path / "bands.csv"), *flags)
    _assert_clean_failure(proc, code)
    assert not (tmp_path / "bands.csv").exists()


_DRIVER_ROW = {"semis_twh": 91, "dc_twh": 269, "mix_factor": 0.62, "ai_share": 0.02, "co2_mt": 1.03}
_BAD_YEAR_TABLE = json.dumps({"rows": [{"year": "a", **_DRIVER_ROW}]})
# numbers in JSON strings: a JSON number is never quoted
_QUOTED_YEAR_TABLE = json.dumps({"rows": [{"year": "2020", **_DRIVER_ROW}]})
_QUOTED_VALUE_TABLE = json.dumps([{"year": 2020, **_DRIVER_ROW, "dc_twh": " 5 "}])
_NO_UNIT_BUNDLE = json.dumps(
    {"trajectories": [{"name": "Sustainable AI", "family": "AIStudy", "points": [[2020, 1.0]]}]}
)


@pytest.mark.parametrize(
    "command,name,text",
    [
        ("emissions", "bundle.json", _NO_UNIT_BUNDLE),
        ("mean", "bundle.json", '{"trajectories": ['),
        ("validate", "table.json", _BAD_YEAR_TABLE),
        ("fit", "table.json", _BAD_YEAR_TABLE),
        ("simulate", "table.json", _BAD_YEAR_TABLE),
        ("validate", "table.json", _QUOTED_YEAR_TABLE),
        ("validate", "table.json", _QUOTED_VALUE_TABLE),
    ],
    ids=["emissions-no-unit", "mean-truncated", "validate-bad-year", "fit-bad-year",
         "simulate-bad-year", "validate-quoted-year", "validate-quoted-value"],
)
def test_malformed_json_input_exit_codes(tmp_path, command, name, text):
    path = tmp_path / name
    path.write_text(text)
    _assert_clean_failure(_run_emisim(command, "--input", str(path)), 2)


@pytest.mark.parametrize(
    "command,name,data",
    [
        ("validate", "table.csv", b"year,semis_twh,dc_twh,mix_factor,ai_share,co2_mt\n\xff\n"),
        ("mean", "bundle.json", b'{"trajectories": "\xff"}'),
        ("bands", "matrix.csv", b"2020,2021\n1.0,2.0\n3.0,\xff\n"),
    ],
    ids=["validate-csv", "mean-json", "bands-matrix"],
)
def test_non_utf8_input_exit_codes(tmp_path, command, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    proc = _run_emisim(command, "--input", str(path))
    _assert_clean_failure(proc, 2)
    assert "not UTF-8" in proc.stderr


_FOUR_ROWS = {"t.csv": "".join(Path(TABLE).read_text().splitlines(keepends=True)[:5])}
_INFINITE_HW = {"hw.json": json.dumps({"semis_twh": 0.1, "dc_twh": 1e307, "mix_factor": 0.1,
                                        "ai_share": 0.1})}
_PARSEC_HW = {"hw.json": '{"dc_twh": {"unit": "parsec", "points": []}}'}
_TENTH_HW = {"hw.json": json.dumps({"semis_twh": 0.1, "dc_twh": 0.1, "mix_factor": 0.1,
                                     "ai_share": 0.1})}
_HUGE_HW = {"hw.json": json.dumps({"semis_twh": 0.1, "dc_twh": 1e305, "mix_factor": 0.1,
                                    "ai_share": 0.1})}
_DRIVER_ROW = '"semis_twh": 1, "dc_twh": 1, "mix_factor": 0.5, "ai_share": 0.5, "co2_mt": 1'
_TRAJECTORY = '{"name": "Surge", "family": "Shell", "unit": "MtCO2", "points": %s}'
_DEEP_JSON = "[" * 100_000
_MIXED_UNITS = {"b.json": '{"trajectories": [%s, %s]}' % (
    _TRAJECTORY % "[[2020, 1.0]]",
    '{"name": "Boom", "family": "Shell", "unit": "TWh", "points": [[2020, 1.0]]}')}
_DISJOINT_YEARS = {"b.json": '{"trajectories": [%s, %s]}' % (
    _TRAJECTORY % "[[2020, 1.0]]",
    '{"name": "Boom", "family": "Shell", "unit": "MtCO2", "points": [[2021, 1.0]]}')}
# six valid rows whose semis_twh is twice their dc_twh: no regression separates the two
_COLLINEAR = {"t.csv": "year,semis_twh,dc_twh,mix_factor,ai_share,co2_mt\n" + "".join(
    f"{2020 + i},{2 * dc},{dc},{mix},{ai},{co2}\n" for i, (dc, mix, ai, co2) in enumerate(
        [(100, 0.6, 0.02, 1.0), (120, 0.62, 0.03, 1.5), (150, 0.58, 0.05, 2.1),
         (180, 0.55, 0.08, 3.4), (220, 0.5, 0.1, 4.2), (260, 0.47, 0.13, 5.0)]))}
_LONG_CELL = {"t.csv": "year,semis_twh,dc_twh,mix_factor,ai_share,co2_mt\n2020," + "9" * 131_073
              + ",1,1,1,1\n"}


def _case(case_id, command, files=None, env=None, code=2, named=()):
    """One rejected command line; ``TABLE`` stands for the bundled driver table."""
    argv = [TABLE if word == "TABLE" else word for word in command.split()]
    return pytest.param(argv, files or {}, env or {}, code, named, id=case_id)


@pytest.mark.parametrize(
    "argv,files,env,code,named",
    [
        _case("cagr-negative-base", "project --base -1 --rate 0.1 --years 3", named=["base"]),
        _case("cagr-rate-below-minus-one", "project --base 1 --rate -2 --years 3", named=["rate"]),
        _case("cagr-negative-years", "project --base 1 --rate 0.1 --years -3", named=["years"]),
        _case("cagr-nan-base", "project --base nan --rate 0.1 --years 3", named=["base"]),
        _case("doubling-zero-period", "project --base 1 --doubling-months 0 --horizon 3"),
        _case("fit-four-rows", "fit --model regression --input t.csv", _FOUR_ROWS,
              named=["6 rows"]),
        _case("emissions-four-rows", "emissions --model regression --input t.csv", _FOUR_ROWS,
              named=["6 rows"]),
        _case("simulate-four-rows", "simulate --model regression --input t.csv", _FOUR_ROWS,
              named=["6 rows"]),
        _case("infinite-sigma", "simulate --input TABLE --halfwidths hw.json", _INFINITE_HW,
              named=["ValueError", "dc_twh"]),
        _case("doubling-overflow", "project --base 1 --doubling-months 1 --horizon 3000", code=4,
              named=["projection overflows"]),
        _case("cagr-overflow", "project --base 1 --rate 0.1 --years 100000", code=4,
              named=["projection overflows after 100000 years"]),
        _case("cagr-power-overflow", "project --base 1 --rate 0.1 --years 100000000", code=4,
              named=["projection overflows after 100000000 years"]),
        _case("doubling-power-overflow", "project --base 1 --doubling-months 1e-300 --horizon 1",
              code=4, named=["projection overflows"]),
        _case("config-ci-level-string", "simulate --input TABLE --config cfg.json",
              {"cfg.json": '{"ci_level": "x"}'}, named=["ci_level"]),
        _case("halfwidths-parsec", "simulate --input TABLE --halfwidths hw.json", _PARSEC_HW,
              named=["hw.json", "dc_twh", "parsec"]),
        _case("env-seed-abc", "simulate --input TABLE", env={"EMISIM_SEED": "abc"},
              named=["EMISIM_SEED"]),
        _case("config-percentiles-string", "simulate --input TABLE --config cfg.json",
              {"cfg.json": '{"percentiles": "5"}'}, named=["percentiles"]),
        _case("seed-minus-one", "simulate --input TABLE --seed -1", named=["master_seed"]),
        _case("seed-2-to-64", f"simulate --input TABLE --seed {2**64}", named=["master_seed"]),
        _case("equiv-inf", "equiv inf"),
        _case("doubling-inf-base", "project --base inf --doubling-months 1 --horizon 1"),
        _case("doubling-nan-period", "project --base 1 --doubling-months nan --horizon 1"),
        _case("oversized-csv-cell", "validate --input t.csv", _LONG_CELL,
              named=["line 2, column 2", "is not finite"]),
        _case("overflowing-mean", "simulate --input TABLE --halfwidths hw.json --realizations 1000"
              " --out o.csv --matrix-out m.csv", _HUGE_HW, code=4, named=["OverflowError", "2024"]),
        _case("bands-overflowing-mean", "bands --input m.csv --out b.csv",
              {"m.csv": "2020,2021\n1.0,1e308\n2.0,1.5e308\n"}, code=4, named=["2021"]),
        _case("bands-negative-cell", "bands --input m.csv --out b.csv",
              {"m.csv": "2020,2021\n1.0,2.0\n\n3.0,-4e-300\n"},
              named=["line 4, column 2", "'-4e-300' is negative"]),
        _case("driver-json-infinite-year", "validate --input t.json",
              {"t.json": '{"rows": [{"year": 1e999, %s}]}' % _DRIVER_ROW}, named=["t.json"]),
        _case("bundle-infinite-year", "mean --input b.json",
              {"b.json": '{"trajectories": [%s]}' % (_TRAJECTORY % "[[1e999, 1.0]]")},
              named=["b.json"]),
        _case("bundle-400-digit-value", "mean --input b.json",
              {"b.json": '{"trajectories": [%s]}' % (_TRAJECTORY % f"[[2020, {'9' * 400}]]")},
              named=["b.json"]),
        _case("config-infinite-halfwidth-year", "simulate --input TABLE --config cfg.json",
              {"cfg.json": '{"halfwidths": {"dc_twh": {"points": [[1e999, 1.0]]}}}'},
              named=["halfwidths", "dc_twh"]),
        _case("bundle-deep-nesting", "mean --input b.json", {"b.json": _DEEP_JSON},
              named=["b.json"]),
        _case("config-deep-nesting", "simulate --input TABLE --config cfg.json",
              {"cfg.json": _DEEP_JSON}, named=["cfg.json"]),
        _case("bands-four-huge-values", "bands --input m.csv --out b.csv",
              {"m.csv": "2020\n1e308\n1.5e308\n1.7e308\n1.7e308\n"}, code=4,
              named=["OverflowError", "2020"]),
        # 455 PiB of drivers: beyond any address space, refused before a page is touched
        _case("realizations-beyond-memory", f"simulate --input TABLE --realizations {10**15}",
              named=["MemoryError"]),
        _case("driver-json-fractional-year", "validate --input t.json",
              {"t.json": '{"rows": [{"year": 2020.7, %s}]}' % _DRIVER_ROW},
              named=["t.json", "2020.7"]),
        _case("driver-json-true-value", "validate --input t.json",
              {"t.json": '{"rows": [{"year": 2020, "semis_twh": 1, "dc_twh": true, '
                         '"mix_factor": 0.5, "ai_share": 0.5, "co2_mt": 1}]}'},
              named=["t.json", "True"]),
        _case("bundle-fractional-year", "mean --input b.json",
              {"b.json": '{"trajectories": [%s]}' % (_TRAJECTORY % "[[2020.9, 1.0]]")},
              named=["b.json", "2020.9"]),
        _case("config-percentile-true", "simulate --input TABLE --config cfg.json",
              {"cfg.json": '{"percentiles": [true, 50]}'}, named=["percentiles", "True"]),
        _case("config-halfwidth-true", "simulate --input TABLE --config cfg.json",
              {"cfg.json": '{"halfwidths": {"semis_twh": true, "dc_twh": 0.1, '
                           '"mix_factor": 0.1, "ai_share": 0.1}}'},
              named=["halfwidths", "semis_twh", "True"]),
        # refused before the run, which would otherwise end in a MemoryError
        _case("outputs-name-one-file", f"simulate --input TABLE --realizations {10**15} "
              "--out x.csv --matrix-out ./x.csv", named=["--matrix-out"]),
        # the bands file is staged with the matrix, so it is not left behind either
        _case("matrix-out-in-missing-directory", "simulate --input TABLE --realizations 10 "
              "--out b.csv --matrix-out missing/m.csv", code=3, named=["missing/m.csv"]),
        # an output that names an input is refused before the input is read
        _case("matrix-out-overwrites-input", "simulate --input t.csv --realizations 10 "
              "--matrix-out t.csv", {"t.csv": Path(TABLE).read_text()},
              named=["--matrix-out", "--input"]),
        _case("out-overwrites-config", "simulate --input TABLE --config cfg.json --out ./cfg.json",
              {"cfg.json": '{"realizations": 10}'}, named=["--out", "--config"]),
        _case("matrix-out-overwrites-halfwidths", "simulate --input TABLE --realizations 10 "
              "--halfwidths hw.json --out b.csv --matrix-out hw.json",
              _TENTH_HW, named=["--matrix-out", "--halfwidths"]),
        _case("bands-out-overwrites-input", "bands --input m.csv --out m.csv",
              {"m.csv": "2020,2021\n1.0,2.0\n3.0,4.0\n"}, named=["--out", "--input"]),
        _case("mean-out-overwrites-input", "mean --input b.json --out b.json",
              {"b.json": Path(BUNDLE).read_text()}, named=["--out", "--input"]),
        _case("fit-out-overwrites-input", "fit --input t.csv --out ./t.csv",
              {"t.csv": Path(TABLE).read_text()}, named=["--out", "--input"]),
        _case("emissions-out-overwrites-input", "emissions --input t.csv --out t.csv",
              {"t.csv": Path(TABLE).read_text()}, named=["--out", "--input"]),
        _case("driver-csv-underscore-year", "validate --input t.csv",
              {"t.csv": Path(TABLE).read_text().replace("\n2020,", "\n2_020,")},
              named=["line 2, column 1", "'2_020'"]),
        _case("matrix-non-ascii-year", "bands --input m.csv --out b.csv",
              {"m.csv": "2020,\u0662\u0660\u0662\u0661\n1.0,2.0\n"},
              named=["line 1, column 2", "year"]),
        _case("env-seed-underscore", "simulate --input TABLE", env={"EMISIM_SEED": "4_2"},
              named=["EMISIM_SEED", "'4_2'"]),
        _case("env-seed-non-ascii", "simulate --input TABLE", env={"EMISIM_SEED": "\u0664\u0662"},
              named=["EMISIM_SEED"]),
        # a line ends at LF alone: the form feed is whitespace inside line 2
        _case("matrix-form-feed-is-no-line-break", "bands --input m.csv --out b.csv",
              {"m.csv": "2020\n1.5\f\n2.5\nx\n"}, named=["line 4, column 1", "'x'"]),
        _case("inference-energy-overflow", f"inference-energy image_generation --count {10**306}",
              code=4, named=["inference energy overflows"]),
        _case("cagr-years-beyond-float", f"project --base 1 --rate 0.5 --years {10**400}", code=4,
              named=["OverflowError: projection overflows after about 1e400 years"]),
        _case("inference-energy-count-beyond-float",
              f"inference-energy image_generation --count {10**400}", code=4,
              named=["inference energy overflows"]),
        _case("inference-energy-unknown-task", "inference-energy telepathy",
              named=["ValueError: unknown task 'telepathy'"]),
        _case("mean-mixed-units", "mean --input b.json", _MIXED_UNITS,
              named=["ValueError: cannot average MtCO2 with TWh"]),
        _case("mean-disjoint-years", "mean --input b.json", _DISJOINT_YEARS,
              named=["ValueError: input series share no common year"]),
        _case("fit-collinear", "fit --model regression --input t.csv", _COLLINEAR, code=4,
              named=["ArithmeticError: driver columns are collinear"]),
    ],
)
def test_rejected_values_end_with_their_exit_code_and_one_line(tmp_path, argv, files, env, code,
                                                               named):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    proc = _run_emisim(*argv, cwd=tmp_path, **env)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    _assert_first_line(code, proc.stderr)
    assert len(proc.stderr.strip().splitlines()) == 1
    assert proc.stdout == ""
    for word in named:
        assert word in proc.stderr
    assert ".tmp" not in proc.stderr  # a failed write names the path given, not its temp file
    # no output file either, and every input keeps its bytes
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    for name, text in files.items():
        assert (tmp_path / name).read_text() == text


# Digests of outputs made of IEEE products, quotients and math.fsum means
# only, so they depend on neither libm nor LAPACK and hold on every machine.
@pytest.mark.parametrize(
    "argv,digest",
    [
        (["emissions", "--input", TABLE, "--model", "intensity"],
         "df9a5127881353bfb2fe155feed4669ff6e9e33b55387265059d6f7dfded91c1"),
        (["emissions", "--input", TABLE, "--model", "intensity", "--format", "json"],
         "6b0cd636800ef67e74562364c6d2e6b654cfb4777c328c4e0a727f21b9e246f8"),
        (["emissions", "--input", BUNDLE],
         "b5971d8b7b2330b6a6ff5a4080acc11bab30bd2fb1229d98733a299e76e2f53b"),
        (["emissions", "--input", BUNDLE, "--format", "json"],
         "462ee6233c712623e455eecdbad69d27ec79728e40a5668fc47e221b1c516b55"),
        (["mean", "--input", BUNDLE],
         "f4d7a27381c25a3447fa187a64a3bbaa484a3a47b6fdb65f9bba938de97584b0"),
    ],
    ids=["emissions-intensity-csv", "emissions-intensity-json", "bundle-csv", "bundle-json",
         "mean-csv"],
)
def test_output_bytes_are_pinned(tmp_path, argv, digest):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert _sha256(out) == digest


@pytest.mark.parametrize("command", ["validate", "mean", "bands"])
def test_missing_input_is_an_io_error(tmp_path, command):
    _assert_clean_failure(_run_emisim(command, "--input", str(tmp_path / "nope.json")), 3)


def test_output_onto_a_directory_names_the_directory(tmp_path, capsys):
    # the rename onto the directory fails, and the message names --out, not the temp file
    target = tmp_path / "d"
    target.mkdir()
    assert main(["mean", "--input", BUNDLE, "--out", str(target)]) == 3
    err = capsys.readouterr().err
    assert f"'{target}'" in err and ".tmp" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["d"]


# ---------------------------------------------------------------------------
# bands
# ---------------------------------------------------------------------------

def test_bands_subcommand_matches_simulate(tmp_path):
    bands_out = tmp_path / "bands.csv"
    matrix_out = tmp_path / "matrix.csv"
    assert main(["simulate", "--input", TABLE, "--seed", "42", "--realizations", "200",
                 "--out", str(bands_out), "--matrix-out", str(matrix_out)]) == 0
    rebanded = tmp_path / "rebanded.csv"
    assert main(["bands", "--input", str(matrix_out), "--out", str(rebanded)]) == 0
    assert _sha256(rebanded) == _sha256(bands_out)


def test_bands_rejects_ragged_matrix(tmp_path, capsys):
    bad = tmp_path / "matrix.csv"
    bad.write_text("2020,2021\n1.0,2.0\n3.0\n")
    assert main(["bands", "--input", str(bad)]) == 2


@pytest.mark.parametrize(
    "flag,code",
    [("--percentiles=150", 2), ("--percentiles=-5,50", 2), ("--percentiles=95,5", 2),
     ("--percentiles=5,5", 2), ("--percentiles=nan", 2), ("--percentiles=abc", 1),
     ("--percentiles=5_0,9_5", 1), ("--percentiles=\u0665\u0660", 1)],
)
def test_bands_malformed_percentiles_exit_codes(tmp_path, flag, code):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("2020,2021\n1.0,2.0\n3.0,4.0\n")
    out = tmp_path / "bands.csv"
    _assert_clean_failure(_run_emisim("bands", "--input", str(matrix), flag, "--out", str(out)), code)
    assert not out.exists()


# Data lines of a matrix CSV and the rows they parse to; None means exit 2.
# Python's float() took the last two (digit-group underscores, non-ASCII digits).
_MATRIX_CELLS = [
    (["1.5,2.5", "3,4"], [[1.5, 2.5], [3.0, 4.0]]),
    ([" 1.5 ,\t2.5 ", "3 ,4\r"], [[1.5, 2.5], [3.0, 4.0]]),
    (["nan,inf", "-inf,1e-3"], None),
    (["1.5,2.5"], [[1.5, 2.5]]),
    (["1.5,2.5", "", "3,4"], [[1.5, 2.5], [3.0, 4.0]]),
    (["1.5,2.5", "3"], None),
    (["1.5,", "3,4"], None),
    (["1.5,2.5,", "3,4,"], None),
    (["1.5,#2", "3,4"], None),
    (["abc,2", "3,4"], None),
    (["0x10,2", "3,4"], None),
    (["1_0,2", "3,4"], None),
    (["\u0661,2", "3,4"], None),
    (["-1e308,inf", "1e308,inf"], None),
    (["1.5,1e999", "3,4"], None),
    (["1.5,2.5", "-0.0,-3"], None),
    (["-0.0,0", "3,4"], [[0.0, 0.0], [3.0, 4.0]]),
]


@pytest.mark.parametrize("lines,rows", _MATRIX_CELLS)
def test_bands_matrix_parsing(tmp_path, capsys, lines, rows):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("\n".join(["2020,2021", *lines]) + "\n", newline="")
    code = main(["bands", "--input", str(matrix), "--percentiles", "50"])
    out, err = capsys.readouterr()
    if rows is None:
        assert code == 2
        assert len(err.strip().splitlines()) == 1
    else:
        assert code == 0
        assert out == bands_from_matrix(np.array(rows), (2020, 2021), (50.0,)).to_csv_text()


def test_bands_reports_file_line_and_column(tmp_path):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("2020,2021\n1.0,2.0\n\n3.0,x\n5.0,6.0\n")
    proc = _run_emisim("bands", "--input", str(matrix))
    _assert_clean_failure(proc, 2)
    assert "line 4, column 2" in proc.stderr
    assert "usecols" not in proc.stderr and "row" not in proc.stderr


@pytest.mark.parametrize(
    "text,line,column",
    [
        ("2020,2020\n1,2\n", 1, 2),
        ("2021,2020\n1,2\n", 1, 2),
        ("\n\n2020,2021,2021\n1,2,3\n", 3, 3),
        ("2020,2022,2021,2023\n\n1,2,3,4\n", 1, 3),
        # the header is reported before a bad data row
        ("\n2021,2020\n1,x\n", 2, 2),
    ],
)
def test_bands_matrix_years_must_increase(tmp_path, capsys, text, line, column):
    # the rule of AnnualSeries: a repeated or backward year would write
    # duplicate or out-of-order band rows
    matrix = tmp_path / "matrix.csv"
    matrix.write_text(text, newline="")
    out = tmp_path / "bands.csv"
    assert main(["bands", "--input", str(matrix), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert f"line {line}, column {column}: years not strictly increasing" in err[0]
    assert not out.exists()


def test_bands_subcommand_single_column(tmp_path):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("2030\n3.0\n1.0\n2.0\n")
    out = tmp_path / "bands.csv"
    assert main(["bands", "--input", str(matrix), "--out", str(out)]) == 0
    assert out.read_text() == "year,mean,p5,p50,p95\n2030,2.0,1.1,2.0,2.9\n"


# ---------------------------------------------------------------------------
# equiv / project / inference-energy
# ---------------------------------------------------------------------------

def test_equiv(capsys):
    assert main(["equiv", "100"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("13500000.0 homes")
    assert "13.50 million" in out


def test_equiv_negative(capsys):
    assert main(["equiv", "--", "-5"]) == 2


def test_negative_numbers_in_exponent_form_are_values(capsys):
    assert main(["project", "--base", "1", "--doubling-months", "1", "--horizon=-1e3"]) == 0
    expected = capsys.readouterr().out
    assert main(["project", "--base", "1", "--doubling-months", "1", "--horizon", "-1e3"]) == 0
    assert capsys.readouterr().out == expected == "9.332636185032189e-302\n"
    assert main(["project", "--base", "1", "--doubling-months", "1", "--horizon", "-1.E+3"]) == 0
    assert capsys.readouterr().out == expected
    assert main(["equiv", "-1e3"]) == 2
    assert capsys.readouterr().err == "error: ValueError: emissions must be >= 0\n"


# (args before the flag, flag, word, args after it, exit code of its = form)
_NUMBER_WORD_FLAGS = [
    (["project"], "--base", "-inf", ["--doubling-months", "1", "--horizon", "1"], 2),
    (["project"], "--base", "-INFINITY", ["--rate", "0.1", "--years", "2"], 2),
    (["project", "--base", "1"], "--rate", "-nan", ["--years", "2"], 2),
    (["project", "--base", "1", "--rate", "0.1"], "--years", "-inf", [], 1),
    (["project", "--base", "1"], "--doubling-months", "-Infinity", ["--horizon", "1"], 2),
    (["project", "--base", "1", "--doubling-months", "1"], "--horizon", "-NaN", [], 2),
    (["equiv"], None, "-inf", [], 2),
    (["equiv"], None, "-nan", [], 2),
    (["equiv"], None, "-Infinity", [], 2),
    (["simulate", "--input", TABLE], "--ci-level", "-Infinity", [], 2),
    (["simulate", "--input", TABLE], "--halfwidth-pct", "-inf", [], 2),
    (["simulate", "--input", TABLE], "--seed", "-inf", [], 1),
    (["simulate", "--input", TABLE], "--realizations", "-nan", [], 1),
    (["simulate", "--input", TABLE], "--workers", "-inf", [], 1),
    (["inference-energy", "text_generation"], "--count", "-NaN", [], 1),
]


@pytest.mark.parametrize(
    "before,flag,word,after,code", _NUMBER_WORD_FLAGS,
    ids=[f"{b[0]}{flag or ''}{word}" for b, flag, word, _, _ in _NUMBER_WORD_FLAGS])
def test_negative_number_words_are_values(capsys, before, flag, word, after, code):
    # a word float reads after a minus sign is the flag's value: it fails as
    # its = form (or, for a positional, its -- form) does, on the value itself
    joined = [*before, f"{flag}={word}" if flag else "--", *([] if flag else [word]), *after]
    spaced = [*before, *([flag] if flag else []), word, *after]
    assert main(joined) == code
    expected = capsys.readouterr()
    assert main(spaced) == code
    assert capsys.readouterr() == expected
    assert expected.out == ""
    if code == 2:
        assert expected.err.count("\n") == 1
    else:
        assert f"'{word}'" in expected.err.splitlines()[-1]


@pytest.mark.parametrize("word", ["-infinite", "-nans", "-in", "-infinityy", "-inf1"])
def test_words_float_does_not_read_stay_options(capsys, word):
    assert main(["project", "--base", word, "--doubling-months", "1", "--horizon", "1"]) == 1
    assert capsys.readouterr().err.endswith("argument --base: expected one argument\n")


def test_equiv_of_negative_zero_is_positive_zero(capsys):
    assert main(["equiv", "--", "-0"]) == 0
    assert capsys.readouterr().out == "0.0 homes (0.00 million)\n"


def test_project_cagr(capsys):
    assert main(["project", "--base", "152", "--rate", "0.15", "--years", "7"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert 400.0 <= value <= 408.0


def test_project_tiny_base_outweighs_an_overflowing_power(capsys):
    # 1.1 ** 7500 overflows a double; 1e-300 times it is about 2.787e10
    assert main(["project", "--base", "1e-300", "--rate", "0.1", "--years", "7500"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(2.7870110247876e10, rel=1e-12)


def test_project_large_base_outweighs_an_underflowing_power(capsys):
    # 0.1 ** 400 underflows to 0.0; 1e300 times it is 1e-100
    assert main(["project", "--base", "1e300", "--rate", "-0.9", "--years", "400"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(9.999999999999112e-101, rel=1e-12, abs=0)


def test_project_cagr_memory_does_not_grow_with_years(capsys):
    # one number is printed, so nothing of size --years may be built
    tracemalloc.start()
    try:
        assert main(["project", "--base", "1", "--rate", "0", "--years", "200000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == "1.0\n"
    assert peak < 1 << 20


def test_project_doubling(capsys):
    assert main(["project", "--base", "1", "--doubling-months", "3.4", "--horizon", "12"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(11.55, abs=0.01)


@pytest.mark.parametrize(
    "argv,out",
    [
        # infinitely many doublings of zero, and powers of 1 and 0.5 beyond the float range
        ("project --base 0 --doubling-months 1e-300 --horizon 1e300", "0.0"),
        ("project --base -0.0 --doubling-months 1e-300 --horizon 1e300", "-0.0"),
        (f"project --base 1 --rate 0 --years {10**400}", "1.0"),
        (f"project --base 1 --rate -0.5 --years {10**400}", "0.0"),
    ],
    ids=["zero-base", "negative-zero-base", "rate-0-years-1e400", "rate-minus-half-years-1e400"],
)
def test_projection_past_the_float_range_ends_with_its_limit(capsys, argv, out):
    assert main(argv.split()) == 0
    assert capsys.readouterr().out == out + "\n"


_EDGE_NUMBERS = st.sampled_from([0.0, 5e-324, -5e-324, 1e308, -1e308])
_COUNTS = st.integers(0, 10**400) | st.sampled_from([1, 10**306, 10**308, 10**309, 10**400])


@st.composite
def _side_calculations(draw):
    """``(argv, rejected)``: a side calculation over edge inputs, and whether
    its domain check rejects them (exit 2)."""
    base = draw(_EDGE_NUMBERS)
    kind = draw(st.sampled_from(["cagr", "doubling", "equiv", "inference-energy"]))
    if kind == "cagr":
        rate, years = draw(st.sampled_from([-0.5, 0.0, 0.5])), draw(_COUNTS)
        return ["project", f"--base={base!r}", f"--rate={rate!r}", f"--years={years}"], base <= 0
    if kind == "doubling":
        # horizon / period overflows to +-inf, or to a power that does
        period = draw(st.sampled_from([5e-324, 1e-300, 1.0, 1e300]))
        horizon = draw(st.sampled_from([0.0, 1.0, -1.0, 1e300, -1e300, 1e308, -1e308]))
        return ["project", f"--base={base!r}", f"--doubling-months={period!r}",
                f"--horizon={horizon!r}"], False
    if kind == "equiv":
        return ["equiv", "--", repr(base)], base < 0
    task = draw(st.sampled_from(list(InferenceTask))).value
    return ["inference-energy", task, f"--count={draw(_COUNTS)}"], False


@settings(max_examples=300, deadline=None)
@given(_side_calculations())
@example((["project", "--base=0.0", "--doubling-months=1e-300", "--horizon=1e300"], False))
@example((["inference-energy", "image_generation", f"--count={10**306}"], False))
@example((["project", "--base=1e308", "--rate=-0.5", f"--years={10**400}"], False))
@example((["inference-energy", "image_generation", f"--count={10**400}"], False))
def test_side_calculations_print_a_finite_number_or_exit_with_one_line(case):
    argv, rejected = case
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert not rejected and err.getvalue() == ""
        assert math.isfinite(float(out.getvalue().split()[0]))
    else:
        assert code == (2 if rejected else 4) and out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
        _assert_first_line(code, err.getvalue())
        if code == 4:
            assert "overflow" in err.getvalue()


def test_project_mode_conflict(capsys):
    assert main(["project", "--base", "1", "--rate", "0.1", "--years", "2",
                 "--doubling-months", "3.4", "--horizon", "12"]) == 2
    assert main(["project", "--base", "1"]) == 2


def test_inference_energy_cmd(capsys):
    assert main(["inference-energy", "image_generation"]) == 0
    assert capsys.readouterr().out.strip() == "2907.0 Wh"
    assert main(["inference-energy", "text_generation", "--count", "10"]) == 0
    assert capsys.readouterr().out.strip() == "470.0 Wh"
    assert main(["inference-energy", "mind_reading"]) == 2


# ---------------------------------------------------------------------------
# Help surface
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "command,expected_flags",
    [
        ("validate", ["--input"]),
        ("emissions", ["--input", "--model", "--out", "--format"]),
        ("mean", ["--input", "--out"]),
        ("fit", ["--input", "--model", "--out"]),
        (
            "simulate",
            ["--input", "--config", "--model", "--realizations", "--seed", "--ci-level",
             "--halfwidth-pct", "--halfwidths", "--correlation", "--percentiles",
             "--workers", "--out", "--matrix-out", "--format"],
        ),
        ("bands", ["--input", "--percentiles", "--out", "--format"]),
        ("project", ["--base", "--rate", "--years", "--doubling-months", "--horizon"]),
    ],
)
def test_help_lists_flags(command, expected_flags, capsys):
    assert main([command, "--help"]) == 0
    text = capsys.readouterr().out
    for flag in expected_flags:
        assert flag in text


def test_module_entry_point():
    proc = _run_emisim("--version")
    assert proc.returncode == 0
    assert "emisim" in proc.stdout


def test_parser_builds():
    assert build_parser().prog == "emisim"


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # one parser serves every main() call of a process
    assert build_parser() is build_parser()
    out = tmp_path / "bands.csv"
    simulate = ["simulate", "--input", TABLE, "--realizations", "20", "--out", str(out)]
    assert main(simulate + ["--percentiles", "10,90"]) == 0
    assert out.read_text().splitlines()[0] == "year,mean,p10,p90"
    assert main(simulate) == 0
    assert out.read_text().splitlines()[0] == "year,mean,p5,p50,p95"
    assert main(["simulate", "--realizations", "20"]) == 1  # --input is required
    assert main(simulate + ["--format", "json"]) == 0
    assert json.loads(out.read_text())["percentiles"] == [5.0, 50.0, 95.0]
    capsys.readouterr()
