"""End-to-end CLI tests (subprocess level: exit codes, encodings, streams)."""

import csv
import io
import json
import math
import subprocess
import sys

from polarphi import cli

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
    for p, want in (("1", 0.1), ("inf", 0.1)):  # 2n/(3(n+1)(n+2)) at n = 3
        end = run_cli("phi", "exact", "--dim", "3", "--p", p, "--method", "moments")
        assert end.returncode == 0, end.stderr
        assert abs(json.loads(end.stdout)[0]["phi"] - want) <= 1e-15
    bad = run_cli("phi", "exact", "--dim", "4", "--p", "0.5", "--method", "moments")
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
    big = '{"type": "pball", "dim": 201, "p": 2}'
    assert run_cli("phi", "mc", "--body", "-", "--samples", "100", "--seed", "1", stdin=big).returncode == 2
    assert run_cli("phi", "mc", "--body", "-", "--samples", "1", "--seed", "1",
                   stdin='{"type": "interval"}').returncode == 2
    # a thin ellipse has an exact sampler like any other body: phi = 1/8
    skew = json.dumps({
        "type": "linear",
        "matrix": [[1000.0, 0.0], [0.0, 0.001]],
        "inner": {"type": "pball", "dim": 2, "p": 2},
    })
    res = run_cli("phi", "mc", "--body", "-", "--samples", "1000", "--seed", "1", stdin=skew)
    assert res.returncode == 0, res.stderr
    rec = json.loads(res.stdout)[0]
    assert abs(rec["estimate"] - 0.125) <= 4.0 * rec["stderr"]


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
    rows = {}
    for suite in ("theorem", "inequalities"):
        res = run_cli("verify", suite)
        assert res.returncode == 0, (suite, res.stderr)
        rows[suite] = json.loads(res.stdout)
        assert rows[suite] and all(r["status"] == "pass" for r in rows[suite]), suite
    moments = [r for r in rows["theorem"] if r["check"] == "recursion-vs-moments"]
    assert {r["p"] for r in moments} == {1.0, 1.25, 1.5, 2.0, 3.0, 8.0, 64.0, "inf"}
    # the ball's volume product is the report's own at p = 2: no slack at all
    ball = [r for r in rows["inequalities"] if r["p"] == 2.0]
    assert ball and all(r["santalo_slack"] == 0.0 for r in ball)


def test_verify_harness():
    res = run_cli("verify", "harness")
    assert res.returncode == 0, res.stderr
    rows = json.loads(res.stdout)
    assert len(rows) == 7
    assert all(r["status"] == "pass" for r in rows)
    # one point per check the sweep makes, not per grid axis
    assert [r["points"] for r in rows] == [10_279, 514] + [66] * 5


def test_verify_theorem_evaluates_each_pair_once(monkeypatch, capsys):
    # reference: every row recomputes phi(B_p^n), as without a memo
    exact = cli.phi_pball
    dims = cli._VERIFY_DIMS
    ps = cli._VERIFY_PS_ALL
    ref = (
        cli._residual_rows(
            "product-decomposition",
            (
                (n + m, p, exact(n + m, p).phi,
                 cli.phi_combine(exact(n, p).phi, n, exact(m, p).phi, m, p))
                for n, m in cli._VERIFY_DIM_PAIRS for p in ps
            ),
            1e-10,
        )
        + cli._residual_rows(
            "recursion-vs-moments",
            ((n, p, exact(n, p).phi, cli.phi_via_moments(n, p).phi) for n in dims for p in ps),
            1e-10,
        )
        + cli._residual_rows(
            "duality",
            ((n, p, exact(n, p).phi, exact(n, cli.dual_exponent(p).q).phi)
             for n in dims for p in ps),
            1e-12,
        )
    )
    calls = []
    monkeypatch.setattr(cli, "phi_pball", lambda n, p: calls.append((n, p)) or exact(n, p))
    for fmt in ("json", "csv"):
        calls.clear()
        assert cli.main(["--format", fmt, "verify", "theorem"]) == 0
        assert len(calls) == len(set(calls)) == 79
        out = capsys.readouterr().out
        cli._emit(ref, fmt)
        assert out == capsys.readouterr().out, fmt


def test_verify_respects_tolerance_flags():
    res = run_cli("verify", "theorem", "--tol-match", "0")
    assert res.returncode == 1  # roundoff alone must now register as violation
    rows = json.loads(res.stdout)
    assert any(r["status"] == "fail" for r in rows)


def test_verify_inequalities_is_the_one_judge(capsys):
    # inequality_report only computes: the command's --tol-* flags decide
    def run(*flags):
        code = cli.main(["verify", "inequalities", *flags])
        return code, json.loads(capsys.readouterr().out)

    code, rows = run("--tol-santalo", "0")
    assert code == 0 and all(r["status"] == "pass" for r in rows)
    # the ball's slack is exactly 0 at p = 2, and positive at every other p
    code, rows = run("--tol-santalo=-1e-300")
    assert code == 1
    assert sorted(r["dim"] for r in rows if r["status"] == "fail") == list(cli._VERIFY_DIMS)
    assert all(r["p"] == 2.0 for r in rows if r["status"] == "fail")
    assert run("--tol-chain=-1")[0] == 1
    assert run("--tol-identity=-1")[0] == 1


def test_deeply_nested_body_is_invalid_input():
    # json.loads gives up near 1,000 levels; the reader must say so on one line
    depth = 1100
    body = '{"type": "linear", "matrix": [[2]], "inner": ' * depth + '{"type": "interval"}' + "}" * depth
    res = run_cli("phi", "mc", "--body", "-", "--samples", "100", "--seed", "1", stdin=body)
    assert res.returncode == 2
    assert res.stderr.startswith("error: invalid-input:")
    assert len(res.stderr.strip().splitlines()) == 1


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
    bad = run_cli("revolution", "--profile", '{"grid": [[-1, 0], [0, 1], [1, 0]', "--dim", "2")
    assert bad.returncode == 2 and len(bad.stderr.strip().splitlines()) == 1
    assert run_cli("revolution", "--profile", "ball", "--dim", "1").returncode == 2
    # the moments are exact, so there is no quadrature tolerance to set
    assert run_cli("revolution", "--profile", "ball", "--dim", "3", "--tol-quad", "1e-9").returncode == 2


def test_parser_reused_across_calls(capsys):
    # one cached parser must answer each argv as a fresh process does: the
    # csv format and the moments method must not leak into later calls
    assert cli.build_parser() is cli.build_parser()
    argvs = (
        ["--format", "csv", "scan", "--dim", "3"],
        ["phi", "exact", "--dim", "3", "--p", "1.5", "--method", "moments"],
        ["phi", "exact", "--dim", "3", "--p", "1.5", "--method", "bogus"],
        ["phi", "exact", "--dim", "3", "--p", "1.5"],
    )
    codes = []
    for argv in argvs:
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        got = capsys.readouterr()
        fresh = run_cli(*argv)
        assert codes[-1] == fresh.returncode, argv
        assert got.out == fresh.stdout, argv
        assert got.err == fresh.stderr, argv
    assert codes == [0, 0, 2, 0]
    assert json.loads(got.out)[0]["method"] == "f"


def test_console_script_installed():
    res = subprocess.run(
        ["polarphi", "phi", "exact", "--dim", "2", "--p", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0
    assert abs(json.loads(res.stdout)[0]["phi"] - 1.0 / 9.0) <= 1e-12
