"""Command-line front end.

Subcommands:

    polarphi phi exact --dim N --p P [--method f|moments]
    polarphi phi mc --body FILE|- --samples M --seed S
    polarphi f-eval --y1 A --y2 B --p P
    polarphi scan --dim N [--grid P1,P2,...]
    polarphi verify theorem|harness|inequalities
    polarphi revolution --profile SPEC --dim N [--diagnostics]

Reports go to stdout as JSON (default) or CSV (--format csv); both encodings
carry identical numeric values (floats are printed with 17 significant
digits, which round-trips float64 exactly).  Diagnostics go to stderr.

Exit codes: 0 success, 1 a verified claim was violated, 2 invalid input,
3 non-convergence (the rejection sampler's envelope).  Errors print a
single machine-parsable line `error: <reason>: <detail>` on stderr.
"""

import argparse
import csv
import json
import math
import sys

from .bodies import parse_body, serialize_body
from .errors import ConvergenceError, DomainError, EnvelopeError, VerificationError
from .exact import (
    dual_exponent,
    f_factor,
    inequality_report,
    phi_combine,
    phi_pball,
    phi_via_moments,
)
from .harness import (
    DEFAULT_DIMS,
    default_p_grid,
    finite_difference_report,
    monotonicity_report,
    scan_p_argmax,
)
from .revolution import decomposition_report, parse_profile, profile_to_json
from .rng import parse_seed
from .sampler import estimate_phi

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INVALID = 2
EXIT_NONCONVERGENCE = 3

DIM_CAP_EXACT = 200
DIM_CAP_MC = 10

_VERIFY_DIM_PAIRS = ((1, 1), (1, 2), (2, 3), (3, 5), (5, 10))
_VERIFY_PS_FINITE = (1.25, 1.5, 2.0, 3.0, 8.0)
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
        doc = [
            {
                k: (float(_fmt(v)) if isinstance(v, float) else v)
                for k, v in rec.items()
            }
            for rec in records
        ]
        json.dump(doc, stream, separators=(", ", ": "), allow_nan=False)
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
    if args.body == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.body, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DomainError(f"cannot read body file {args.body!r}: {exc}")
    body = parse_body(text)
    _check_cap(body.dim, DIM_CAP_MC, "Monte Carlo")
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


def _cmd_verify_theorem(args):
    records = []
    ok = True
    for n, m in _VERIFY_DIM_PAIRS:
        for p in _VERIFY_PS_ALL:
            whole = phi_pball(n + m, p).phi
            combined = phi_combine(phi_pball(n, p).phi, n, phi_pball(m, p).phi, m, p)
            resid = abs(whole - combined) / max(abs(whole), 1e-300)
            passed = resid <= args.tol_match
            ok &= passed
            records.append(
                {
                    "check": "product-decomposition",
                    "dim": n + m,
                    "p": _p_field(p),
                    "residual": resid,
                    "tolerance": args.tol_match,
                    "status": "pass" if passed else "fail",
                }
            )
    for n in (2, 3, 5, 10, 20):
        for p in _VERIFY_PS_FINITE:
            a = phi_pball(n, p).phi
            b = phi_via_moments(n, p).phi
            resid = abs(a - b) / max(abs(a), 1e-300)
            passed = resid <= args.tol_match
            ok &= passed
            records.append(
                {
                    "check": "recursion-vs-moments",
                    "dim": n,
                    "p": _p_field(p),
                    "residual": resid,
                    "tolerance": args.tol_match,
                    "status": "pass" if passed else "fail",
                }
            )
    for n in (2, 3, 5, 10, 20):
        for p in _VERIFY_PS_ALL:
            q = dual_exponent(p).q
            a = phi_pball(n, p).phi
            b = phi_pball(n, q).phi
            resid = abs(a - b) / max(abs(a), 1e-300)
            passed = resid <= args.tol_duality
            ok &= passed
            records.append(
                {
                    "check": "duality",
                    "dim": n,
                    "p": _p_field(p),
                    "residual": resid,
                    "tolerance": args.tol_duality,
                    "status": "pass" if passed else "fail",
                }
            )
    return records, ok


def _cmd_verify_harness(args):
    reports = [monotonicity_report(), finite_difference_report(tolerance=args.tol_fd)]
    reports.extend(scan_p_argmax(n) for n in DEFAULT_DIMS)
    records = []
    ok = True
    for rep in reports:
        ok &= rep.passed
        records.append(
            {
                "check": rep.description,
                "points": len(rep.grid),
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
    for n in (2, 3, 5, 10, 20):
        ball = phi_pball(n, 2.0)
        ball_product = ball.volume * ball.polar_volume
        for p in _VERIFY_PS_ALL:
            rep = inequality_report(n, p, check=False)
            phi = phi_pball(n, p).phi
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
    dim = _check_cap(args.dim, DIM_CAP_EXACT, "revolution quadrature")
    if dim < 2:
        raise DomainError(f"revolution bodies need dim >= 2, got {dim}")
    spec = args.profile.strip()
    profile = parse_profile(json.loads(spec) if spec.startswith("{") else spec)
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


def build_parser() -> _Parser:
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
    except EnvelopeError as exc:
        print(f"error: envelope-failure: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except ConvergenceError as exc:
        print(f"error: non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except VerificationError as exc:
        print(f"error: violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    _emit(records, args.format)
    return EXIT_OK if passed else EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
