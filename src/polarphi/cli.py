"""Command-line front end.

Subcommands:

    polarphi phi exact --dim N --p P [--method f|moments]
    polarphi phi mc --body FILE|- --samples M --seed S
    polarphi f-eval --y1 A --y2 B --p P
    polarphi scan --dim N [--grid P1,P2,...]
    polarphi verify theorem|harness|inequalities
    polarphi revolution --profile SPEC --dim N [--diagnostics]

Reports go to stdout as JSON (default) or CSV (--format csv); both encodings
carry identical numeric values (JSON prints each float's shortest
round-tripping repr, CSV 17 significant digits; both round-trip float64
exactly; JSON prints a non-finite float as null).  Diagnostics go to stderr.
phi exact prints a volume only while it is a normal double (else nan, null in
JSON), and always its log.  phi exact, scan and revolution take n <= 1000,
judged by their routes; phi mc takes n <= 200.

The verify suites judge at fixed thresholds: a relative residual of at most
1e-10 between two routes to phi (1e-12 for duality), 1e-5 for a
finite-difference identity, a volume-product or isotropy-chain slack of at
least -1e-10, and a W'' bound above each cell's budget.  Each row prints its
residual or slack, so a reader can apply another threshold to the output.

Exit codes: 0 success, 1 a verified claim was violated, 2 invalid input.
Errors print a single machine-parsable line `error: <reason>: <detail>` on
stderr.
"""

import argparse
import csv
import functools
import importlib
import json
import math
import re
import sys

from .errors import DomainError, VerificationError
from .exact import (
    _DECIMAL,
    _check_p,
    _normal_exp,
    _p_to_json,
    dual_exponent,
    f_factor,
    inequality_report,
    phi_combine,
    phi_pball,
    phi_via_moments,
)

# Names from the NumPy-backed modules, bound by _load() on first use, so that
# phi exact, f-eval, verify theorem and verify inequalities start without
# NumPy.  Handlers call them through this module's globals, where a wrapper
# set on the module attribute (a trace hook, a test's monkeypatch) is the
# function that runs.
_LAZY = (
    "parse_body", "serialize_body", "finite_difference_report", "monotonicity_report",
    "scan_p_argmax", "decomposition_report", "parse_profile", "profile_to_json",
    "parse_seed", "estimate_phi",
)


def _load():
    """Bind every name of _LAZY that is not bound yet; a bound one is kept."""
    names = globals()
    package = importlib.import_module(__package__)  # it resolves its exports
    for name in _LAZY:
        if name not in names:
            names[name] = getattr(package, name)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load()
    return globals()[name]


EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INVALID = 2

_VERIFY_DIMS = (2, 3, 5, 10, 20)
_VERIFY_DIM_PAIRS = ((1, 1), (1, 2), (2, 3), (3, 5), (5, 10))
_VERIFY_PS_ALL = (1.0, 1.25, 1.5, 2.0, 3.0, 8.0, 64.0, math.inf)

# the verify thresholds: relative residuals at most these
TOL_MATCH = 1e-10  # two routes to phi(B_p^n)
TOL_DUALITY = 1e-12  # phi(B_p^n) against phi(B_q^n)
# and slacks at least minus these
TOL_SANTALO = 1e-10  # |B_2^n|^2 - |K| |K°|
TOL_CHAIN = 1e-10  # phi - the isotropy-chain bound


def _matching(pattern, convert):
    """An argparse type: convert only text the pattern matches whole, since int
    and float alone read digit-group underscores ("1_0") and non-ASCII digits."""

    def read(text):
        return convert(pattern.fullmatch(text)[0])  # no match: TypeError, invalid input

    read.__name__ = convert.__name__  # argparse's message: "invalid int value"
    return read


_INT = _matching(re.compile("[0-9]+"), int)
_FLOAT = _matching(_DECIMAL, float)


class _Parser(argparse.ArgumentParser):
    """argparse with a single-line, machine-parsable error channel."""

    def error(self, message):
        print(f"error: invalid-input: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _fmt(v) -> str:
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _json_value(v):
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _emit(records, fmt) -> None:
    if not records:
        return
    if fmt == "json":
        # repr is the shortest round-tripping form of every finite double;
        # JSON has no NaN or infinity, so a non-finite float prints as null
        records = [{k: _json_value(v) for k, v in rec.items()} for rec in records]
        json.dump(records, sys.stdout, separators=(", ", ": "), allow_nan=False)
        sys.stdout.write("\n")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        keys = list(records[0].keys())
        writer.writerow(keys)
        for rec in records:
            writer.writerow([_fmt(rec[k]) for k in keys])


# ---------------------------------------------------------------------------
# command handlers: return (records, all_passed)
# ---------------------------------------------------------------------------


def _cmd_phi_exact(args):
    p = _check_p(args.p)
    route = phi_via_moments if args.method == "moments" else phi_pball
    result = route(args.dim, p)
    lv, lw = result.log_volume, result.log_polar_volume
    rec = {
        "dim": args.dim,
        "p": _p_to_json(p),
        "method": args.method,
        "phi": result.phi,
        "volume": _normal_exp(lv),
        "polar_volume": _normal_exp(lw),
        "cross_integral": _normal_exp(lv + lw, result.phi),
        "log_volume": lv,
        "log_polar_volume": lw,
    }
    return [rec], True


def _cmd_phi_mc(args):
    _load()
    if args.body == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.body, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DomainError(f"cannot read body file {args.body!r}: {exc}")
    body = parse_body(text)
    if body.dim > 200:
        raise DomainError(f"Monte Carlo supports dim <= 200, got {body.dim}")
    seed = parse_seed(args.seed)
    est = estimate_phi(body, args.samples, seed)
    rec = {
        "dim": body.dim,
        "body": serialize_body(body),
        "samples": est.samples,
        "seed": est.seed,
        "estimate": est.estimate,
        "stderr": est.stderr,
    }
    return [rec], True


def _cmd_f_eval(args):
    p = _check_p(args.p)
    value = f_factor(args.y1, args.y2, p)
    rec = {"y1": float(args.y1), "y2": float(args.y2), "p": _p_to_json(p), "value": value}
    return [rec], True


def _cmd_scan(args):
    _load()
    grid = [s for s in args.grid.split(",") if s.strip()] if args.grid else None
    report = scan_p_argmax(args.dim, grid)
    phi2 = report.extras["phi_at_2"]
    records = [{"dim": args.dim, "p": _p_to_json(p), "phi": v, "margin": v - phi2}
               for p, v in zip(report.grid, report.values)]
    print(
        f"scan dim={args.dim}: argmax p={report.extras['argmax_p']:g} "
        f"phi(2)={phi2:.17g} worst margin={report.max_residual:.3e} "
        f"violations={len(report.violations)}",
        file=sys.stderr,
    )
    return records, report.passed


def _rel(a, b):
    return abs(a - b) / max(abs(a), 1e-300)


def _residual_rows(check, cases, tol):
    """One record per (dim, p, a, b) case: the relative residual of b against a."""
    rows = []
    for n, p, a, b in cases:
        resid = _rel(a, b)
        rows.append(
            {
                "check": check,
                "dim": n,
                "p": _p_to_json(p),
                "residual": resid,
                "tolerance": tol,
                "status": "pass" if resid <= tol else "fail",
            }
        )
    return rows


def _cmd_verify_theorem(args):
    # the three checks share phi(B_p^n): evaluate each (n, p) once per command
    phi = functools.cache(lambda n, p: phi_pball(n, p).phi)
    combined = (
        (n + m, p, phi(n + m, p), phi_combine(phi(n, p), n, phi(m, p), m, p))
        for n, m in _VERIFY_DIM_PAIRS
        for p in _VERIFY_PS_ALL
    )
    moments = (
        (n, p, phi(n, p), phi_via_moments(n, p).phi)
        for n in _VERIFY_DIMS
        for p in _VERIFY_PS_ALL
    )
    dual = (
        (n, p, phi(n, p), phi(n, dual_exponent(p).q))
        for n in _VERIFY_DIMS
        for p in _VERIFY_PS_ALL
    )
    records = (
        _residual_rows("product-decomposition", combined, TOL_MATCH)
        + _residual_rows("recursion-vs-moments", moments, TOL_MATCH)
        + _residual_rows("duality", dual, TOL_DUALITY)
    )
    return records, all(rec["status"] == "pass" for rec in records)


def _cmd_verify_harness(args):
    _load()
    reports = [monotonicity_report(), finite_difference_report()]
    reports.extend(scan_p_argmax(n) for n in _VERIFY_DIMS)
    records = []
    ok = True
    for rep in reports:
        ok &= rep.passed
        records.append(
            {
                "check": rep.description,
                "points": len(rep.values),
                "violations": len(rep.violations),
                "max_residual": float(rep.max_residual),
                "tolerance": float(rep.tolerance),
                "status": "pass" if rep.passed else "fail",
            }
        )
    return records, ok


def _cmd_verify_inequalities(args):
    records = []
    ok = True
    for n in _VERIFY_DIMS:
        ball_product = math.exp(inequality_report(n, 2.0).log_santalo_product)
        for p in _VERIFY_PS_ALL:
            rep = inequality_report(n, p)
            santalo_slack = ball_product - math.exp(rep.log_santalo_product)
            chain_slack = rep.phi - rep.lower_bound
            passed = santalo_slack >= -TOL_SANTALO and chain_slack >= -TOL_CHAIN
            ok &= passed
            records.append(
                {
                    "check": "volume-product-chain",
                    "dim": n,
                    "p": _p_to_json(p),
                    "santalo_slack": santalo_slack,
                    "chain_slack": chain_slack,
                    "status": "pass" if passed else "fail",
                }
            )
    return records, ok


def _cmd_revolution(args):
    _load()
    spec = args.profile.strip()
    if spec.startswith("{"):
        try:
            spec = json.loads(spec)
        except (ValueError, RecursionError):
            raise DomainError(f"--profile is not a valid JSON grid: {args.profile!r}")
    profile = parse_profile(spec)
    report = decomposition_report(profile, args.dim)
    prof_json = profile_to_json(profile)
    rec = {
        "dim": args.dim,
        "profile": prof_json if isinstance(prof_json, str) else json.dumps(prof_json),
        "phi": report.phi,
        "first_summand": report.first_summand,
        "second_summand": report.second_summand,
        "second_summand_bound": report.second_summand_bound,
        "hensley_product_sq": report.hensley_product_sq,
        "santalo_ratio": report.santalo_ratio,
        "scaled_phi": report.extras["scaled_phi"],
        "scaled_first_summand": report.extras["scaled_first_summand"],
    }
    if args.diagnostics:
        for key, value in report.extras.items():
            print(f"revolution dim={args.dim}: {key} = {value}", file=sys.stderr)
    return [rec], True


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built once per process; parse_args keeps no state."""
    parser = _Parser(prog="polarphi", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report encoding"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    phi = sub.add_parser("phi", help="evaluate the functional")
    phisub = phi.add_subparsers(dest="mode", required=True)

    exact = phisub.add_parser("exact", help="closed-form evaluation for p-balls")
    exact.add_argument("--dim", type=_INT, required=True)
    exact.add_argument("--p", required=True)
    exact.add_argument("--method", choices=("f", "moments"), default="f")
    exact.set_defaults(func=_cmd_phi_exact)

    mc = phisub.add_parser("mc", help="Monte Carlo estimate for a described body")
    mc.add_argument("--body", required=True, help="JSON body file, or - for stdin")
    mc.add_argument("--samples", type=_INT, required=True)
    mc.add_argument("--seed", required=True, help="decimal or 0x-hex 64-bit seed")
    mc.set_defaults(func=_cmd_phi_mc)

    feval = sub.add_parser("f-eval", help="evaluate the decomposition factor")
    feval.add_argument("--y1", type=_FLOAT, required=True)
    feval.add_argument("--y2", type=_FLOAT, required=True)
    feval.add_argument("--p", required=True)
    feval.set_defaults(func=_cmd_f_eval)

    scan = sub.add_parser("scan", help="phi over a p-grid; maximum must sit at p = 2")
    scan.add_argument("--dim", type=_INT, required=True)
    scan.add_argument("--grid", help="comma-separated p values (must include 1, 2, inf)")
    scan.set_defaults(func=_cmd_scan)

    verify = sub.add_parser("verify", help="run a verification suite")
    vsub = verify.add_subparsers(dest="suite", required=True)

    for suite, func, text in (
        ("theorem", _cmd_verify_theorem, "product decomposition + duality"),
        ("harness", _cmd_verify_harness, "W'' > 0 certificate, derivative identities"),
        ("inequalities", _cmd_verify_inequalities, "volume products and isotropy chain"),
    ):
        vsub.add_parser(suite, help=text).set_defaults(func=func)

    rev = sub.add_parser("revolution", help="phi decomposition for a revolution body")
    rev.add_argument("--profile", required=True, help='ball|cylinder|cone|pball:P|{"grid": ...}')
    rev.add_argument("--dim", type=_INT, required=True)
    rev.add_argument("--diagnostics", action="store_true")
    rev.set_defaults(func=_cmd_revolution)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        records, passed = args.func(args)
    except DomainError as exc:
        print(f"error: invalid-input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except VerificationError as exc:
        print(f"error: violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    _emit(records, args.format)
    return EXIT_OK if passed else EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
