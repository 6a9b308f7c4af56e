"""The benchmark's workloads: CLI operations with their oracles.

An operation is one `polarphi` command line (an argv list) and an oracle that
checks the records the command printed.  The oracles are computed from
polarphi's independent closed forms before any timing starts:

    p-ball           phi_pball (the dual exponent for `phi exact`)
    simplex          n / (n + 2)^2
    linear image     phi of the inner body (linear invariance)
    product A x_p B  phi_combine(phi_A, dim_A, phi_B, dim_B, p)
    revolution (MC)  phi_revolution of the profile
    revolution CLI   ball: n / (n + 2)^2; cylinder and cone: phi_combine(
                     phi(B_2^{n-1}), n - 1, 1/9, 1, inf); pball:P: the same
                     with P in place of inf; a grid profile keeps the
                     program's own VerificationError bounds
    scan, verify     exit code 0 and every row passes

A Monte Carlo answer passes when it lies within MC_SIGMAS of its own
standard error of the oracle.

The workload seed sets the order of the operations; the program only ever
sees the body files and argv built here.  The Monte Carlo seed of each cell
is derived from the cell's name and not from the workload seed: the stderr
of a heavy-tailed cell (the simplex polar is the simplex scaled by -n) moves
by about 12 % from one seed to the next at these sample counts, which would
swing tts_s by a quarter between runs.  Fixed draws make tts_s compare the
same samples on every run, so a change in sampler speed or estimator
variance is what moves it.  The cells themselves are fixed, including the two `mc_rejection` cells
that fail today with EnvelopeError: they stay in the workload and count as
failed operations until the program can answer them.
"""

import json
import math
import random
from dataclasses import dataclass

from polarphi.exact import dual_exponent, phi_combine, phi_pball
from polarphi.revolution import parse_profile, phi_revolution

MC_SIGMAS = 6.0  # a Monte Carlo answer misses its oracle beyond this many stderr
REL_TOL = 1e-10  # relative tolerance of closed-form and quadrature answers

README_GRID = {"grid": [[-1, 0], [-0.5, 0.75], [0, 1], [0.5, 0.75], [1, 0]]}

WHY = {
    "mc_exact": (
        "phi mc on p-balls only: rng, the exact Gamma/GS sampler and the estimator "
        "reduction, with no rejection, membership or quadrature"
    ),
    "mc_rejection": (
        "phi mc on every other body type: cube rejection, bodies gauge/membership and "
        "golden-section polar evaluation dominate; keeps the two EnvelopeError cells"
    ),
    "analytic": (
        "no sampling: revolution GK quadrature and polar profiles, phi exact, scan and "
        "the verify suites, so specfun, exact and harness dominate"
    ),
}


# The reference kernel (run.py) that scales each workload's times: the
# Monte Carlo passes are NumPy work on arrays of 1e4 to 1e6 entries, the
# analytic pass is mostly interpreted scalar code (528k special-function
# calls, quadrature loops).  The shared machine's slow spells slow these two
# kinds of work by different factors.
REFERENCE_KIND = {"mc_exact": "array", "mc_rejection": "array", "analytic": "loop"}


@dataclass
class Op:
    """One CLI invocation and the oracle for its output."""

    name: str
    group: str  # smoke mode runs one operation of each group
    argv: list
    check: object  # records -> None when they pass, else a reason
    precision: bool = True  # counts toward tts_s
    known_defect: str = ""  # why the program fails this cell today


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _p(value):
    return math.inf if value == "inf" else float(value)


def body_phi(body):
    """Exact phi of a body document, from closed forms and quadrature."""
    kind = body["type"]
    if kind == "interval":
        return 1.0 / 9.0
    if kind == "pball":
        return phi_pball(body["dim"], _p(body["p"])).phi
    if kind == "simplex":
        n = body["dim"]
        return n / (n + 2.0) ** 2
    if kind == "linear":
        return body_phi(body["inner"])
    if kind == "product":
        left, right = body["left"], body["right"]
        return phi_combine(
            body_phi(left), body_dim(left), body_phi(right), body_dim(right), _p(body["p"])
        )
    if kind == "revolution":
        return phi_revolution(parse_profile(body["profile"]), body["dim"]).phi
    raise ValueError(f"no oracle for body type {kind!r}")


def body_dim(body):
    if body["type"] == "interval":
        return 1
    if body["type"] == "linear":
        return len(body["matrix"])
    if body["type"] == "product":
        return body_dim(body["left"]) + body_dim(body["right"])
    return body["dim"]


def _mc_check(ref, dim, samples):
    def check(records):
        rec = records[0]
        est, err = rec["estimate"], rec["stderr"]
        if rec["dim"] != dim or rec["samples"] != samples:
            return f"echoed dim/samples {rec['dim']}/{rec['samples']} != {dim}/{samples}"
        if not err > 0.0:
            return f"stderr {err!r} is not positive"
        if abs(est - ref) > MC_SIGMAS * err:
            return f"estimate {est!r} is {abs(est - ref) / err:.1f} stderr from {ref!r}"
        return None

    return check


def _value_check(ref, key="phi", tol=REL_TOL):
    def check(records):
        got = records[0][key]
        if _rel(got, ref) > tol:
            return f"{key} {got!r} differs from {ref!r} by {_rel(got, ref):.2e} relative"
        return None

    return check


def _grid_check(n):
    cap = n / (n + 2.0) ** 2

    def check(records):
        phi = records[0]["phi"]
        if not 0.0 < phi <= cap * (1.0 + REL_TOL):
            return f"phi {phi!r} outside (0, {cap!r}]"
        return None

    return check


def _scan_check(n):
    ball = n / (n + 2.0) ** 2

    def check(records):
        for rec in records:
            if rec["p"] == 2.0:
                if _rel(rec["phi"], ball) > REL_TOL:
                    return f"phi(B_2^{n}) = {rec['phi']!r}, expected {ball!r}"
            elif not rec["margin"] < 0.0:
                return f"p = {rec['p']!r} ties or beats p = 2 (margin {rec['margin']!r})"
        return None

    return check


def _rows_pass(records):
    bad = [rec for rec in records if rec.get("status") != "pass"]
    return f"{len(bad)} of {len(records)} rows do not pass" if bad else None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _pball(n, p):
    return {"type": "pball", "dim": n, "p": p}


def _linear(matrix, inner):
    return {"type": "linear", "matrix": matrix, "inner": inner}


def _mc_cells(workload):
    """(name, group, body, samples, known defect) for each Monte Carlo cell."""
    if workload == "mc_exact":
        cells = [((2, 1), 200_000), ((3, 1.5), 200_000), ((5, 3), 200_000),
                 ((6, 2), 200_000), ((8, "inf"), 200_000), ((10, 1.25), 100_000)]
        return [(f"pball-{n}-{p}", "pball", _pball(n, p), m, "") for (n, p), m in cells]
    envelope = "EnvelopeError: cube rejection acceptance below 1e-6"
    rev = lambda n, prof: {"type": "revolution", "dim": n, "profile": prof}  # noqa: E731
    return [
        ("simplex-3", "simplex", {"type": "simplex", "dim": 3}, 40_000, ""),
        ("simplex-4", "simplex", {"type": "simplex", "dim": 4}, 20_000, ""),
        ("simplex-5", "simplex", {"type": "simplex", "dim": 5}, 5_000, ""),
        ("rev-cone-5", "revolution", rev(5, "cone"), 5_000, ""),
        ("rev-pball3-4", "revolution", rev(4, "pball:3"), 10_000, ""),
        ("rev-grid-3", "revolution", rev(3, README_GRID), 10_000, ""),
        ("lin-diag3-ball3", "linear",
         _linear([[3, 0, 0], [0, 1, 0], [0, 0, 1]], _pball(3, 2)), 20_000, ""),
        ("lin-diag30-ball2", "linear", _linear([[30, 0], [0, 1]], _pball(2, 2)), 20_000, ""),
        ("lin-shear-p1.5", "linear", _linear([[1, 1], [0, 1]], _pball(2, 1.5)), 40_000, ""),
        ("prod-l1-simplex", "product",
         {"type": "product", "p": 2, "left": _pball(2, 1),
          "right": {"type": "simplex", "dim": 2}}, 40_000, ""),
        ("prod-l3-interval", "product",
         {"type": "product", "p": 1.5, "left": _pball(2, 3), "right": {"type": "interval"}},
         40_000, ""),
        ("lin-thin-ellipse", "defect",
         _linear([[1000, 0], [0, 0.001]], _pball(2, 2)), 20_000, envelope),
        ("simplex-8", "defect", {"type": "simplex", "dim": 8}, 20_000, envelope),
    ]


def _mc_ops(workload, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for name, group, body, samples, defect in _mc_cells(workload):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(body), encoding="utf-8")
        cell_seed = random.Random(f"{workload}:{name}").getrandbits(64)
        argv = ["phi", "mc", "--body", str(path), "--samples", str(samples),
                "--seed", str(cell_seed)]
        check = _mc_check(body_phi(body), body_dim(body), samples)
        ops.append(Op(f"mc:{name}", group, argv, check, not defect, defect))
    return ops


def _analytic_ops():
    ops = []
    grid = json.dumps(README_GRID)
    for prof in ("ball", "cylinder", "cone", "pball:1.5", "pball:3", grid):
        label = "grid" if prof == grid else prof
        for n in (2, 3, 5, 10, 50, 200):
            if prof == "ball":
                check = _value_check(n / (n + 2.0) ** 2)
            elif prof == grid:
                check = _grid_check(n)
            else:
                p = math.inf if prof in ("cylinder", "cone") else float(prof.split(":")[1])
                check = _value_check(phi_combine(phi_pball(n - 1, 2.0).phi, n - 1, 1.0 / 9.0, 1, p))
            argv = ["revolution", "--profile", prof, "--dim", str(n)]
            ops.append(Op(f"revolution:{label}-{n}", "revolution", argv, check))
    for n in (3, 50, 200):
        for p in ("1.5", "3"):
            ref = phi_pball(n, dual_exponent(float(p)).q).phi
            for method in ("f", "moments"):
                argv = ["phi", "exact", "--dim", str(n), "--p", p, "--method", method]
                ops.append(Op(f"exact:{n}-{p}-{method}", "exact", argv, _value_check(ref)))
    for n in (50, 200):
        ops.append(Op(f"scan:{n}", "scan", ["scan", "--dim", str(n)], _scan_check(n)))
    for suite in ("theorem", "harness", "inequalities"):
        ops.append(Op(f"verify:{suite}", "verify", ["verify", suite], _rows_pass))
    return ops


def build(workload, seed, workdir):
    """The workload's operations, in an order drawn from the seed."""
    if workload in ("mc_exact", "mc_rejection"):
        ops = _mc_ops(workload, workdir / workload)
    elif workload == "analytic":
        ops = _analytic_ops()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"{seed}:{workload}:order").shuffle(ops)
    return ops


def smoke_slice(ops):
    """One operation of each group, in workload order."""
    seen, out = set(), []
    for op in ops:
        if op.group not in seen:
            seen.add(op.group)
            out.append(op)
    return out


def warmup(workdir):
    """Operations run once, untimed, so that lazy NumPy set-up is not timed."""
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "warmup-pball.json"
    path.write_text(json.dumps(_pball(3, 1.5)), encoding="utf-8")
    argvs = (
        ["phi", "exact", "--dim", "3", "--p", "2"],
        ["revolution", "--profile", "ball", "--dim", "3"],
        ["phi", "mc", "--body", str(path), "--samples", "1000", "--seed", "1"],
    )
    return [Op("warmup", "warmup", argv, lambda records: None) for argv in argvs]
