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
exactly).  Diagnostics go to stderr.

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
import sys

from .errors import DomainError, VerificationError
from .exact import (
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
    "parse_body", "serialize_body", "default_p_grid",
    "finite_difference_report", "monotonicity_report", "scan_p_argmax",
    "decomposition_report", "parse_profile", "profile_to_json", "parse_seed",
    "estimate_phi",
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

DIM_CAP_EXACT = 200

_VERIFY_DIMS = (2, 3, 5, 10, 20)
_VERIFY_DIM_PAIRS = ((1, 1), (1, 2), (2, 3), (3, 5), (5, 10))
_VERIFY_PS_ALL = (1.0, 1.25, 1.5, 2.0, 3.0, 8.0, 64.0, math.inf)


class _Parser(argparse.ArgumentParser):
    """argparse with a single-line, machine-parsable error channel."""

    def error(self, message):
        print(f"error: invalid-input: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _p_value(text) -> float:
    s = str(text).strip().lower()
    if s == "inf":
        return math.inf
    try:
        v = float(s)
    except ValueError:
        raise DomainError(f"p must be a decimal number or 'inf', got {text!r}")
    if math.isnan(v) or v < 1.0:
        raise DomainError(f"p must lie in [1, inf], got {text!r}")
    return v


def _p_field(p: float):
    return "inf" if math.isinf(p) else float(p)


def _check_cap(dim: int, cap: int, what: str) -> int:
    if dim < 1:
        raise DomainError(f"dim must be >= 1, got {dim}")
    if dim > cap:
        raise DomainError(f"{what} supports dim <= {cap}, got {dim}")
    return dim


def _fmt(v) -> str:
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _emit(records, fmt, stream=None) -> None:
    stream = sys.stdout if stream is None else stream
    if not records:
        return
    if fmt == "json":
        # repr is the shortest round-tripping form of every finite double
        json.dump(records, stream, separators=(", ", ": "), allow_nan=False)
        stream.write("\n")
    else:
        writer = csv.writer(stream, lineterminator="\n")
        keys = list(records[0].keys())
        writer.writerow(keys)
        for rec in records:
            writer.writerow([_fmt(rec[k]) for k in keys])


# ---------------------------------------------------------------------------
# command handlers: return (records, all_passed)
# ---------------------------------------------------------------------------


def _cmd_phi_exact(args):
    dim = _check_cap(args.dim, DIM_CAP_EXACT, "exact evaluation")
    p = _p_value(args.p)
    if args.method == "moments":
        result = phi_via_moments(dim, p)
    else:
        result = phi_pball(dim, p)
    rec = {
        "dim": dim,
        "p": _p_field(p),
        "method": args.method,
        "phi": result.phi,
        "volume": result.volume,
        "polar_volume": result.polar_volume,
        "cross_integral": result.cross_integral,
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
    _check_cap(body.dim, DIM_CAP_EXACT, "Monte Carlo")
    if args.samples < 2:
        raise DomainError(f"--samples must be >= 2, got {args.samples}")
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
    p = _p_value(args.p)
    value = f_factor(args.y1, args.y2, p)
    rec = {"y1": float(args.y1), "y2": float(args.y2), "p": _p_field(p), "value": value}
    return [rec], True


def _parse_grid(text):
    parts = [s for s in text.split(",") if s.strip()]
    if not parts:
        raise DomainError("empty p grid")
    return [_p_value(s) for s in parts]


def _cmd_scan(args):
    _load()
    dim = _check_cap(args.dim, DIM_CAP_EXACT, "exact evaluation")
    grid = _parse_grid(args.grid) if args.grid else default_p_grid()
    report = scan_p_argmax(dim, grid, tolerance=args.tol_max)
    phi2 = report.extras["phi_at_2"]
    records = []
    for p, v in zip(report.grid, report.values):
        records.append(
            {
                "dim": dim,
                "p": _p_field(p),
                "phi": v,
                "margin": v - phi2,
            }
        )
    print(
        f"scan dim={dim}: argmax p={report.extras['argmax_p']:g} "
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
                "p": _p_field(p),
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
        _residual_rows("product-decomposition", combined, args.tol_match)
        + _residual_rows("recursion-vs-moments", moments, args.tol_match)
        + _residual_rows("duality", dual, args.tol_duality)
    )
    return records, all(rec["status"] == "pass" for rec in records)


def _cmd_verify_harness(args):
    _load()
    reports = [monotonicity_report(), finite_difference_report(tolerance=args.tol_fd)]
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
        ball_product = inequality_report(n, 2.0).santalo_product
        for p in _VERIFY_PS_ALL:
            rep = inequality_report(n, p)
            phi = rep.phi
            santalo_slack = ball_product - rep.santalo_product
            chain_slack = phi - rep.lower_bound
            identity_rel = rep.identity_residual / phi
            passed = (
                santalo_slack >= -args.tol_santalo
                and chain_slack >= -args.tol_chain
                and identity_rel <= args.tol_identity
            )
            ok &= passed
            records.append(
                {
                    "check": "volume-product-chain",
                    "dim": n,
                    "p": _p_field(p),
                    "santalo_slack": santalo_slack,
                    "chain_slack": chain_slack,
                    "identity_rel_residual": identity_rel,
                    "status": "pass" if passed else "fail",
                }
            )
    return records, ok


def _cmd_revolution(args):
    _load()
    dim = _check_cap(args.dim, DIM_CAP_EXACT, "revolution quadrature")
    if dim < 2:
        raise DomainError(f"revolution bodies need dim >= 2, got {dim}")
    spec = args.profile.strip()
    if spec.startswith("{"):
        try:
            spec = json.loads(spec)
        except (ValueError, RecursionError):
            raise DomainError(f"--profile is not a valid JSON grid: {args.profile!r}")
    profile = parse_profile(spec)
    report = decomposition_report(profile, dim)
    prof_json = profile_to_json(profile)
    rec = {
        "dim": dim,
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
            print(f"revolution dim={dim}: {key} = {value}", file=sys.stderr)
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
    exact.add_argument("--dim", type=int, required=True)
    exact.add_argument("--p", required=True)
    exact.add_argument("--method", choices=("f", "moments"), default="f")
    exact.set_defaults(func=_cmd_phi_exact)

    mc = phisub.add_parser("mc", help="Monte Carlo estimate for a described body")
    mc.add_argument("--body", required=True, help="JSON body file, or - for stdin")
    mc.add_argument("--samples", type=int, required=True)
    mc.add_argument("--seed", required=True, help="decimal or 0x-hex 64-bit seed")
    mc.set_defaults(func=_cmd_phi_mc)

    feval = sub.add_parser("f-eval", help="evaluate the decomposition factor")
    feval.add_argument("--y1", type=float, required=True)
    feval.add_argument("--y2", type=float, required=True)
    feval.add_argument("--p", required=True)
    feval.set_defaults(func=_cmd_f_eval)

    scan = sub.add_parser("scan", help="phi over a p-grid; maximum must sit at p = 2")
    scan.add_argument("--dim", type=int, required=True)
    scan.add_argument("--grid", help="comma-separated p values (must include 1, 2, inf)")
    scan.add_argument("--tol-max", type=float, default=1e-12, dest="tol_max")
    scan.set_defaults(func=_cmd_scan)

    verify = sub.add_parser("verify", help="run a verification suite")
    vsub = verify.add_subparsers(dest="suite", required=True)

    vt = vsub.add_parser("theorem", help="product decomposition + duality")
    vt.add_argument("--tol-match", type=float, default=1e-10, dest="tol_match")
    vt.add_argument("--tol-duality", type=float, default=1e-12, dest="tol_duality")
    vt.set_defaults(func=_cmd_verify_theorem)

    vh = vsub.add_parser("harness", help="monotonicity, signs, derivative identities")
    vh.add_argument("--tol-fd", type=float, default=1e-5, dest="tol_fd")
    vh.set_defaults(func=_cmd_verify_harness)

    vi = vsub.add_parser("inequalities", help="volume products and isotropy chain")
    vi.add_argument("--tol-santalo", type=float, default=1e-10, dest="tol_santalo")
    vi.add_argument("--tol-chain", type=float, default=1e-10, dest="tol_chain")
    vi.add_argument("--tol-identity", type=float, default=1e-10, dest="tol_identity")
    vi.set_defaults(func=_cmd_verify_inequalities)

    rev = sub.add_parser("revolution", help="phi decomposition for a revolution body")
    rev.add_argument("--profile", required=True, help='ball|cylinder|cone|pball:P|{"grid": ...}')
    rev.add_argument("--dim", type=int, required=True)
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
