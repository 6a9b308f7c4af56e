"""End-to-end CLI tests (subprocess level: exit codes, encodings, streams)."""

import csv
import io
import json
import math
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from polarphi import bodies, cli, harness

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
    for key in ("phi", "volume", "polar_volume", "cross_integral", "log_volume",
                "log_polar_volume", "p"):
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
    assert run_cli("phi", "exact", "--dim", "1001", "--p", "2").returncode == 2
    assert run_cli("phi", "exact", "--dim", "3", "--p", "0.5").returncode == 2
    assert run_cli("phi", "exact", "--dim", "3", "--p", "nope").returncode == 2
    assert run_cli("nonsense").returncode == 2
    res = run_cli("phi", "exact", "--dim", "0", "--p", "2")
    assert res.returncode == 2
    assert len(res.stderr.strip().splitlines()) == 1  # one-line reason


def test_phi_exact_volume_past_the_normal_range_is_null(capsys):
    # |B_1^200| = 2^200 / 200! is subnormal: only its log prints as a number
    assert cli.main(["phi", "exact", "--dim", "200", "--p", "1"]) == 0
    row = json.loads(capsys.readouterr().out)[0]
    assert row["volume"] is None
    assert row["log_volume"] == pytest.approx(200 * math.log(2.0) - math.lgamma(201.0))
    assert row["polar_volume"] == math.exp(row["log_polar_volume"])
    assert row["polar_volume"] == pytest.approx(2.0**200, rel=1e-13)
    assert row["cross_integral"] == row["phi"] * math.exp(row["log_volume"] + row["log_polar_volume"])
    assert cli.main(["--format", "csv", "phi", "exact", "--dim", "200", "--p", "1"]) == 0
    crow = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert crow["volume"] == "nan" and float(crow["log_volume"]) == row["log_volume"]


def test_each_exact_route_judges_its_own_dimension(capsys):
    # phi exact (both routes), scan and revolution stop where phi_pball does;
    # the error names the command's own n (revolution runs phi_pball at n - 1)
    routes = (
        ["phi", "exact", "--p", "1.5"],
        ["phi", "exact", "--p", "1.5", "--method", "moments"],
        ["scan", "--grid", "1,2,inf"],
        ["revolution", "--profile", "cone"],
    )
    for argv in routes:
        assert cli.main([*argv, "--dim", "1000"]) == 0, argv
        rows = json.loads(capsys.readouterr().out)
        assert all(r["dim"] == 1000 and math.isfinite(r["phi"]) for r in rows), argv
        assert cli.main([*argv, "--dim", "1001"]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-input:") and err.endswith("got 1001\n"), argv


def test_phi_mc_rejects_a_large_simplex_before_building_it(monkeypatch, capsys):
    # the vertices are an (n+1) x (n+1) SVD: the cap must come first
    def unbuilt(n):
        raise AssertionError(f"simplex vertices built for dim {n}")

    monkeypatch.setattr(bodies, "_simplex_vertices", unbuilt)
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"type": "simplex", "dim": 4000}'))
    assert cli.main(["phi", "mc", "--body", "-", "--samples", "100", "--seed", "1"]) == 2
    assert capsys.readouterr().err == "error: invalid-input: Monte Carlo supports dim <= 200, got 4000\n"


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
    for y2 in ("1e200", "1e308"):  # beyond f_factor's y2 bound: no OverflowError
        res = run_cli("f-eval", "--y1", "1", "--y2", y2, "--p", "1.5")
        assert res.returncode == 2
        assert res.stderr.startswith("error: invalid-input:")
        assert len(res.stderr.strip().splitlines()) == 1


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
    # every exponent ties with p = 2 at n = 1, where no maximum is claimed
    res = run_cli("scan", "--dim", "1")
    assert res.returncode == 2 and len(res.stderr.strip().splitlines()) == 1
    # the maximum must be strict, so there is no tolerance to set
    assert run_cli("scan", "--dim", "3", "--tol-max", "1e-12").returncode == 2


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
    # one point per check, not per grid axis: the certificate's cells, the
    # identity checks, and each scan's exponents
    assert [r["points"] for r in rows] == [61, 604] + [66] * 5
    lemma = rows[0]
    assert lemma["check"] == (
        "W'' > 0 certificate: 61 cells on [0, 2], Alzer tail bound positive for w > 1.4616"
    )
    assert -1.1e-4 < lemma["max_residual"] < -1e-4  # the worst margin, negated


def test_non_finite_numbers_print_as_null(monkeypatch, capsys):
    # the certificate's first polygamma call is NaN: its row fails, and
    # every row still prints
    real_trigamma = harness.trigamma
    calls = []

    def trigamma(*args):
        calls.append(args)
        return math.nan if len(calls) == 1 else real_trigamma(*args)

    monkeypatch.setattr(harness, "trigamma", trigamma)
    assert cli.main(["verify", "harness"]) == 1
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 7
    assert rows[0]["status"] == "fail" and rows[0]["max_residual"] is None
    assert all(r["status"] == "pass" for r in rows[1:])

    real_phi = harness.phi_pball
    monkeypatch.setattr(
        harness, "phi_pball",
        lambda n, p: replace(real_phi(n, p), phi=math.nan) if p == 3.0 else real_phi(n, p),
    )
    assert cli.main(["scan", "--dim", "3", "--grid", "1,2,3,inf"]) == 1
    rows = json.loads(capsys.readouterr().out)
    assert [(r["phi"], r["margin"]) for r in rows if r["p"] == 3.0] == [(None, None)]
    assert cli.main(["--format", "csv", "scan", "--dim", "3", "--grid", "1,2,3,inf"]) == 1
    out = capsys.readouterr().out
    assert next(r for r in csv.DictReader(io.StringIO(out)) if r["p"] == "3")["phi"] == "nan"


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


def test_verify_respects_tolerance_flags(monkeypatch, capsys):
    # the threshold is fixed at 1e-10: a moment route off by 1e-9 relative
    # fails every recursion-vs-moments row, and no other row
    real = cli.phi_via_moments
    monkeypatch.setattr(
        cli, "phi_via_moments", lambda n, p: replace(real(n, p), phi=real(n, p).phi * (1.0 + 1e-9))
    )
    assert cli.main(["verify", "theorem"]) == 1
    rows = json.loads(capsys.readouterr().out)
    moments = [r for r in rows if r["check"] == "recursion-vs-moments"]
    assert moments and all(r["status"] == "fail" and r["tolerance"] == 1e-10 for r in moments)
    assert all(r["status"] == "pass" for r in rows if r["check"] != "recursion-vs-moments")


def test_verify_tolerances_must_be_finite(capsys):
    # the thresholds are fixed: each former --tol-* flag is invalid input
    for argv in (
        ["theorem", "--tol-match", "1e-10"],
        ["theorem", "--tol-duality", "1e-12"],
        ["harness", "--tol-fd", "1e-5"],
        ["inequalities", "--tol-santalo", "1e-10"],
        ["inequalities", "--tol-chain=-1"],
        ["inequalities", "--tol-identity", "1e-10"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", *argv])
        err = capsys.readouterr().err
        assert exc.value.code == 2, argv
        assert err.startswith("error: invalid-input:"), argv
        assert len(err.strip().splitlines()) == 1, argv


def test_verify_inequalities_is_the_one_judge(monkeypatch, capsys):
    # inequality_report only computes; the command judges at fixed thresholds
    assert cli.main(["verify", "inequalities"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows and all(r["status"] == "pass" for r in rows)
    # the ball's slack is exactly 0 at p = 2, and positive at every other p
    assert all(r["santalo_slack"] == 0.0 for r in rows if r["p"] == 2.0)
    assert all(r["santalo_slack"] > 0.0 for r in rows if r["p"] != 2.0)
    # the isotropy identity is judged once, by `verify theorem`
    assert "identity_rel_residual" not in rows[0]
    # a chain bound above phi fails its own row, and only that row
    real = cli.inequality_report
    monkeypatch.setattr(
        cli, "inequality_report",
        lambda n, p: replace(real(n, p), lower_bound=1.0) if (n, p) == (3, 1.5) else real(n, p),
    )
    assert cli.main(["verify", "inequalities"]) == 1
    rows = json.loads(capsys.readouterr().out)
    assert [(r["dim"], r["p"]) for r in rows if r["status"] == "fail"] == [(3, 1.5)]
    assert next(r for r in rows if r["status"] == "fail")["chain_slack"] < -0.5


def test_bad_exponent_is_invalid_input(monkeypatch, capsys):
    # the CLI's --p, a body's "p" and a pball:P profile share one rule; a
    # body takes exactly the number or "inf" of its JSON grammar
    for argv, body in (
        (["f-eval", "--y1", "1", "--y2", "2", "--p", "abc"], None),
        (["f-eval", "--y1", "1", "--y2", "2", "--p", "1_5"], None),
        (["phi", "exact", "--dim", "3", "--p", "1_5"], None),
        (["scan", "--dim", "3", "--grid", "1,1_5,2,inf"], None),
        (["phi", "exact", "--dim", "3", "--p", "nan"], None),
        (["scan", "--dim", "3", "--grid", "1,2,x,inf"], None),
        (["revolution", "--profile", "pball:inf", "--dim", "3"], None),
        (["phi", "mc", "--body", "-", "--samples", "10", "--seed", "1"],
         '{"type": "pball", "dim": 2, "p": "Infinity"}'),
        (["phi", "mc", "--body", "-", "--samples", "10", "--seed", "1"],
         '{"type": "pball", "dim": 2, "p": true}'),
    ):
        monkeypatch.setattr(sys, "stdin", io.StringIO(body or ""))
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-input:") and len(err.strip().splitlines()) == 1


def test_bad_seed_is_invalid_input(monkeypatch, capsys):
    # plain decimal or 0x-hex digits: int alone would read "1_5" as 15
    for seed in ("1_5", "0x1_0"):
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"type": "pball", "dim": 2, "p": 2}'))
        assert cli.main(["phi", "mc", "--body", "-", "--samples", "10", "--seed", seed]) == 2, seed
        err = capsys.readouterr().err
        assert err == f"error: invalid-input: seed must be decimal or 0x-hex text, got '{seed}'\n"


def test_bad_count_or_coordinate_is_invalid_input(monkeypatch, capsys):
    # plain ASCII digits for --dim and --samples, and the decimal text of
    # --p for --y1 and --y2: int and float alone read "1_0" as 10 and "٣"
    # (Arabic-Indic three) as 3
    for argv in (
        ["phi", "exact", "--dim", "1_0", "--p", "2"],
        ["phi", "exact", "--dim", "٣", "--p", "2"],
        ["scan", "--dim", "1_0"],
        ["revolution", "--profile", "ball", "--dim", "1_0"],
        ["phi", "mc", "--body", "-", "--samples", "1_0", "--seed", "1"],
        ["phi", "mc", "--body", "-", "--samples", "١٠", "--seed", "1"],
        ["f-eval", "--y1", "1_0", "--y2", "2", "--p", "2"],
        ["f-eval", "--y1", "1", "--y2", "2_0", "--p", "2"],
        ["f-eval", "--y1", "١", "--y2", "2", "--p", "2"],
    ):
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"type": "pball", "dim": 2, "p": 2}'))
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-input:") and len(err.strip().splitlines()) == 1, argv
    assert cli.main(["f-eval", "--y1", " 1e0", "--y2", "2.", "--p", "2"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["value"] == pytest.approx(9.0 / 16.0, rel=1e-12)


def _readme_commands():
    """(argv, stdin) for each `polarphi ...` command of the README's CLI block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    commands, pending = [], ""
    for line in block.replace("\\\n", "").splitlines():
        if not pending and (not line.strip() or line.lstrip().startswith("#")):
            continue
        pending += line + "\n"
        try:
            words = shlex.split(pending)
        except ValueError:  # a quoted body goes on to the next line
            continue
        pending, stdin = "", None
        if words[0] == "echo":  # echo BODY | polarphi ...
            assert words[2] == "|", words
            stdin, words = words[1], words[3:]
        assert words[0] == "polarphi", words
        commands.append((words[1:], stdin))
    assert not pending
    return commands


def test_readme_cli_commands_run(monkeypatch, capsys):
    # every command the README shows must run: no removed flag, no bad body
    commands = _readme_commands()
    assert {"phi", "f-eval", "scan", "verify", "revolution"} <= {w for a, _ in commands for w in a}
    for argv, stdin in commands:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 0, (argv, capsys.readouterr().err)
        capsys.readouterr()


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
