"""End-to-end CLI tests (subprocess level: exit codes, encodings, streams)."""

import csv
import io
import json
import math
import subprocess
import sys

PY = [sys.executable, "-m", "polarphi.cli"]


def run_cli(*args, stdin=None):
    return subprocess.run(
        PY + list(args), input=stdin, capture_output=True, text=True, timeout=300
    )


def test_phi_exact_json():
    res = run_cli("phi", "exact", "--dim", "3", "--p", "2")
    assert res.returncode == 0, res.stderr
    rows = json.loads(res.stdout)
    assert len(rows) == 1
    assert abs(rows[0]["phi"] - 0.12) <= 1e-12
    assert rows[0]["dim"] == 3 and rows[0]["method"] == "f"


def test_csv_json_numeric_equality():
    a = run_cli("phi", "exact", "--dim", "5", "--p", "1.5")
    b = run_cli("--format", "csv", "phi", "exact", "--dim", "5", "--p", "1.5")
    assert a.returncode == 0 and b.returncode == 0
    jrow = json.loads(a.stdout)[0]
    crow = next(csv.DictReader(io.StringIO(b.stdout)))
    for key in ("phi", "volume", "polar_volume", "cross_integral", "p"):
        assert float(crow[key]) == float(jrow[key]), key


def test_p_inf_literal():
    res = run_cli("phi", "exact", "--dim", "4", "--p", "inf")
    assert res.returncode == 0
    row = json.loads(res.stdout)[0]
    assert row["p"] == "inf"
    assert abs(row["volume"] - 16.0) <= 1e-12


def test_method_moments():
    res = run_cli("phi", "exact", "--dim", "4", "--p", "3", "--method", "moments")
    assert res.returncode == 0
    row = json.loads(res.stdout)[0]
    ref = run_cli("phi", "exact", "--dim", "4", "--p", "3")
    assert abs(row["phi"] - json.loads(ref.stdout)[0]["phi"]) <= 1e-10
    bad = run_cli("phi", "exact", "--dim", "4", "--p", "1", "--method", "moments")
    assert bad.returncode == 2
    assert bad.stderr.startswith("error: invalid-input:")


def test_exit_codes_invalid_input():
    assert run_cli("phi", "exact", "--dim", "201", "--p", "2").returncode == 2
    assert run_cli("phi", "exact", "--dim", "3", "--p", "0.5").returncode == 2
    assert run_cli("phi", "exact", "--dim", "3", "--p", "nope").returncode == 2
    assert run_cli("nonsense").returncode == 2
    res = run_cli("phi", "exact", "--dim", "0", "--p", "2")
    assert res.returncode == 2
    assert len(res.stderr.strip().splitlines()) == 1  # one-line reason


def test_phi_mc_stdin_and_seeds():
    body = '{"type": "pball", "dim": 2, "p": 2}'
    a = run_cli("phi", "mc", "--body", "-", "--samples", "20000", "--seed", "16", stdin=body)
    b = run_cli("phi", "mc", "--body", "-", "--samples", "20000", "--seed", "0x10", stdin=body)
    assert a.returncode == 0, a.stderr
    ra, rb = json.loads(a.stdout)[0], json.loads(b.stdout)[0]
    assert ra["estimate"] == rb["estimate"]  # hex and decimal seeds agree
    assert ra["seed"] == 16
    assert abs(ra["estimate"] - 0.125) <= 4.0 * ra["stderr"]


def test_phi_mc_body_file(tmp_path):
    f = tmp_path / "body.json"
    f.write_text('{"type": "simplex", "dim": 2}')
    res = run_cli("phi", "mc", "--body", str(f), "--samples", "20000", "--seed", "5")
    assert res.returncode == 0, res.stderr
    row = json.loads(res.stdout)[0]
    assert abs(row["estimate"] - 0.125) <= 4.0 * row["stderr"]
    missing = run_cli("phi", "mc", "--body", "/nonexistent.json", "--samples", "100", "--seed", "5")
    assert missing.returncode == 2


def test_phi_mc_caps_and_envelope():
    big = '{"type": "pball", "dim": 11, "p": 2}'
    assert run_cli("phi", "mc", "--body", "-", "--samples", "100", "--seed", "1", stdin=big).returncode == 2
    assert run_cli("phi", "mc", "--body", "-", "--samples", "1", "--seed", "1",
                   stdin='{"type": "interval"}').returncode == 2
    skew = json.dumps({
        "type": "linear",
        "matrix": [[1000.0, 0.0], [0.0, 0.001]],
        "inner": {"type": "pball", "dim": 2, "p": 2},
    })
    res = run_cli("phi", "mc", "--body", "-", "--samples", "1000", "--seed", "1", stdin=skew)
    assert res.returncode == 3
    assert res.stderr.startswith("error: envelope-failure:")


def test_f_eval():
    res = run_cli("f-eval", "--y1", "1", "--y2", "2", "--p", "2")
    assert res.returncode == 0
    assert abs(json.loads(res.stdout)[0]["value"] - 9.0 / 16.0) <= 1e-12


def test_scan_small_grid():
    res = run_cli("scan", "--dim", "3", "--grid", "1,1.5,2,4,inf")
    assert res.returncode == 0, res.stderr
    rows = json.loads(res.stdout)
    assert len(rows) == 5
    by_p = {str(r["p"]): r for r in rows}
    assert by_p["2.0"]["margin"] == 0.0
    assert all(r["margin"] < 0.0 for r in rows if r["p"] != 2.0)
    assert "argmax p=2" in res.stderr  # diagnostics on stderr, report on stdout
    assert run_cli("scan", "--dim", "3", "--grid", "1,2,4").returncode == 2  # no inf


def test_verify_suites():
    for suite in ("theorem", "inequalities"):
        res = run_cli("verify", suite)
        assert res.returncode == 0, (suite, res.stderr)
        rows = json.loads(res.stdout)
        assert rows and all(r["status"] == "pass" for r in rows), suite


def test_verify_harness():
    res = run_cli("verify", "harness")
    assert res.returncode == 0, res.stderr
    rows = json.loads(res.stdout)
    assert len(rows) == 7
    assert all(r["status"] == "pass" for r in rows)


def test_verify_respects_tolerance_flags():
    res = run_cli("verify", "theorem", "--tol-match", "0")
    assert res.returncode == 1  # roundoff alone must now register as violation
    rows = json.loads(res.stdout)
    assert any(r["status"] == "fail" for r in rows)


def test_revolution_command():
    res = run_cli("revolution", "--profile", "cylinder", "--dim", "2")
    assert res.returncode == 0, res.stderr
    row = json.loads(res.stdout)[0]
    assert abs(row["phi"] - 1.0 / 9.0) <= 1e-10
    assert row["profile"] == "cylinder"
    diag = run_cli("revolution", "--profile", "ball", "--dim", "3", "--diagnostics")
    assert diag.returncode == 0
    assert "scaled_phi" in diag.stderr and "scaled_phi" not in diag.stdout.split("[")[0]
    grid = run_cli("revolution", "--profile", '{"grid": [[-1, 0], [0, 1], [1, 0]]}', "--dim", "2")
    assert grid.returncode == 0
    assert run_cli("revolution", "--profile", "egg", "--dim", "3").returncode == 2
    assert run_cli("revolution", "--profile", "ball", "--dim", "1").returncode == 2
    # the moments are exact, so there is no quadrature tolerance to set
    assert run_cli("revolution", "--profile", "ball", "--dim", "3", "--tol-quad", "1e-9").returncode == 2


def test_console_script_installed():
    res = subprocess.run(
        ["polarphi", "phi", "exact", "--dim", "2", "--p", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0
    assert abs(json.loads(res.stdout)[0]["phi"] - 1.0 / 9.0) <= 1e-12
