"""Acceptance gate: nine criteria, one test and one printed verdict line each.

Each criterion prints `[PASS] criterion N: ...` (or `[FAIL] ...`) with the
observed worst error and, where capped, the measured runtime.  Timed criteria
make one untimed call first so the cap measures the computation, not
first-call costs.  The Monte Carlo criterion allows one retry per cell with a
pre-declared backup seed: at 4 stderr the per-cell false-failure probability
is ~6e-5, so a single honest retry drives the suite's false-failure rate
below 1e-7 while leaving a real bias no place to hide (both seeds would have
to miss in the same direction).
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import polarphi as pp
from polarphi.harness import default_p_grid

EULER_GAMMA = 0.5772156649015328606
ZETA3 = 1.2020569031595942854


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_euclidean_closed_form():
    pp.phi_pball(50, 2.0)  # warm the kernels outside the timed region
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 51):
        ref = n / (n + 2.0) ** 2
        worst = max(worst, abs(pp.phi_pball(n, 2.0).phi - ref) / ref)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 1.0
    _report(1, ok, f"phi(B_2^n) = n/(n+2)^2 for n=1..50, worst rel {worst:.2e}, {dt:.2f}s")


def test_criterion_2_euclidean_maximizes():
    grid = default_p_grid()  # 64-point geometric grid on [1, 64] + exact {1, 2, inf}
    dims = (2, 3, 5, 10, 20)
    pp.phi_pball(20, 1.7)  # warm
    t0 = time.perf_counter()
    ok = True
    worst_over = -math.inf
    worst_margin = -math.inf
    for n in dims:
        rep = pp.scan_p_argmax(n, grid)
        bound = n / (n + 2.0) ** 2
        over = max(v - bound for v in rep.values)
        worst_over = max(worst_over, over)
        worst_margin = max(worst_margin, rep.max_residual)
        ok &= rep.passed and over <= 1e-12 and rep.extras["argmax_p"] == 2.0
    dt = time.perf_counter() - t0
    ok = ok and dt < 5.0
    _report(
        2,
        ok,
        f"argmax at p=2 on {len(grid)}-exponent grid, dims {dims}; "
        f"worst excess over n/(n+2)^2 {worst_over:.2e}, worst margin {worst_margin:.2e}, {dt:.2f}s",
    )


def test_criterion_3_cross_path_oracle(slice_volume):
    exponents = (1.0, 1.25, 1.5, 2.0, 3.0, 8.0, 64.0, math.inf)
    worst_phi = 0.0
    for n in range(2, 21):
        for p in sorted(set(exponents) | set(default_p_grid())):
            a = pp.phi_pball(n, p).phi
            b = pp.phi_via_moments(n, p).phi
            worst_phi = max(worst_phi, abs(a - b) / a)
    worst_vol = 0.0
    for n in range(1, 51):
        for p in exponents:
            a = slice_volume(n, p)
            b = pp.pball_volume(n, p)
            worst_vol = max(worst_vol, abs(a - b) / b)
    ok = worst_phi <= 1e-10 and worst_vol <= 1e-12
    _report(
        3,
        ok,
        f"moment route vs recursion worst rel {worst_phi:.2e} (cap 1e-10); "
        f"volume slice recursion vs closed form worst rel {worst_vol:.2e} (cap 1e-12)",
    )


def test_criterion_4_duality_and_endpoints():
    worst_dual = 0.0
    for n in (2, 3, 5, 10, 20):
        for p in (1.0, 1.25, 1.5, 2.0, 3.0, 8.0, 64.0, math.inf):
            q = pp.dual_exponent(p).q
            a = pp.phi_pball(n, p).phi
            worst_dual = max(worst_dual, abs(a - pp.phi_pball(n, q).phi) / a)
    worst_end = 0.0
    for y1, y2 in ((1.0, 2.0), (2.0, 3.0), (3.0, 5.0), (5.0, 20.0)):
        lim = pp.f_factor(y1, y2, 1.0)
        near = pp.f_factor(y1, y2, 1.0 + 1e-6)
        worst_end = max(worst_end, abs(near - lim) / max(1.0, abs(lim)))
    ok = worst_dual <= 1e-12 and worst_end <= 1e-5
    _report(
        4,
        ok,
        f"phi(B_p) = phi(B_q) worst rel {worst_dual:.2e} (cap 1e-12); "
        f"factor continuity at p->1 worst {worst_end:.2e} (cap 1e-5)",
    )


def test_criterion_5_monte_carlo():
    samples = 200_000
    sheared = pp.make_linear_image(np.array([[1.0, 1.0], [0.0, 1.0]]), pp.PBall(2, 2.0))
    cells = [
        ("pball(2,1)", pp.PBall(2, 1.0), pp.phi_pball(2, 1.0).phi, 11, 1011),
        ("pball(2,2)", pp.PBall(2, 2.0), pp.phi_pball(2, 2.0).phi, 12, 1012),
        ("pball(3,1.5)", pp.PBall(3, 1.5), pp.phi_pball(3, 1.5).phi, 13, 1013),
        ("pball(4,3)", pp.PBall(4, 3.0), pp.phi_pball(4, 3.0).phi, 14, 1014),
        ("sheared-disc", sheared, 0.125, 15, 1015),
        ("simplex(2)", pp.Simplex(2), 2.0 / 16.0, 16, 1016),
        ("simplex(3)", pp.Simplex(3), 3.0 / 25.0, 17, 1017),
    ]
    pp.estimate_phi(pp.PBall(2, 2.0), 100, 0)  # warm
    t0 = time.perf_counter()
    ok = True
    worst_sigma = 0.0
    retried = []
    for name, body, ref, seed, backup in cells:
        est = pp.estimate_phi(body, samples, seed)
        sigmas = abs(est.estimate - ref) / est.stderr
        if sigmas > 4.0:  # one pre-declared backup seed per cell
            retried.append(name)
            est = pp.estimate_phi(body, samples, backup)
            sigmas = abs(est.estimate - ref) / est.stderr
        worst_sigma = max(worst_sigma, sigmas)
        ok &= sigmas <= 4.0
    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    _report(
        5,
        ok,
        f"7 cells x {samples} samples within 4 stderr, worst {worst_sigma:.2f} sigma, "
        f"retries {retried or 'none'}, {dt:.1f}s",
    )


def test_criterion_6_harness_suite():
    # the certificate proves W'' > 0 on all of (0, inf): cells on [0, 2]
    # whose bounds clear their budgets, and the Alzer tail past 1.4616
    lemma = pp.monotonicity_report()
    fd = pp.finite_difference_report()
    scans = [pp.scan_p_argmax(n) for n in (2, 3, 5, 10, 20)]
    ok = (
        lemma.passed
        and lemma.max_residual < 0.0
        and lemma.extras["tail_from"] < lemma.extras["cells_to"]
        and fd.passed
        and fd.max_residual <= 1e-5
        and all(s.passed and not s.violations for s in scans)
    )
    _report(
        6,
        ok,
        f"W'' certificate {len(lemma.grid)} cells, worst margin {-lemma.max_residual:.2e}, "
        f"violations {len(lemma.violations)}; scan violations "
        f"{sum(len(s.violations) for s in scans)}, fd worst rel {fd.max_residual:.2e} (cap 1e-5)",
    )


def test_criterion_7_revolution_suite():
    worst = {}
    for n in (2, 3, 5):
        ref = n / (n + 2.0) ** 2
        worst[f"ball{n}"] = abs(pp.phi_revolution(pp.parse_profile("ball"), n).phi - ref)
    cyl = abs(pp.phi_revolution(pp.parse_profile("cylinder"), 2).phi - 1.0 / 9.0)
    worst_pball = 0.0
    for P in (1.5, 3.0):
        for n in (3, 4, 5, 10, 50, 200):
            got = pp.phi_revolution(pp.parse_profile(f"pball:{P}"), n).phi
            oracle = pp.phi_combine(
                pp.phi_pball(n - 1, 2.0).phi, n - 1, pp.PHI_INTERVAL, 1, P
            )
            worst_pball = max(worst_pball, abs(got - oracle) / oracle)
    ts = np.linspace(-1.0, 1.0, 201)
    worst_inv = 0.0
    profiles = ("ball", "cylinder", "cone", "pball:1.5", "pball:3")
    for name in profiles:
        prof = pp.parse_profile(name)
        double = pp.polar_profile(pp.polar_profile(prof))
        worst_inv = max(worst_inv, np.abs(double.values(ts) - prof.values(ts)).max())
    bounds_ok = True
    hensley_ok = True
    for name in profiles:
        for n in (2, 3, 4):
            rep = pp.decomposition_report(pp.parse_profile(name), n)
            bounds_ok &= rep.second_summand <= rep.second_summand_bound + 1e-10
            hensley_ok &= 1.0 / 12.0 - 1e-9 <= rep.hensley_product_sq <= 0.5 + 1e-9
    ball_worst = max(worst.values())
    ok = (
        ball_worst <= 1e-8
        and cyl <= 1e-10
        and worst_pball <= 1e-12
        and worst_inv <= 1e-13
        and bounds_ok
        and hensley_ok
    )
    _report(
        7,
        ok,
        f"ball worst {ball_worst:.2e} (cap 1e-8), cylinder {cyl:.2e} (cap 1e-10), "
        f"pball vs factor route {worst_pball:.2e} (cap 1e-12), involution sup {worst_inv:.2e} "
        f"(cap 1e-13), summand bound {bounds_ok}, section-moment window {hensley_ok}",
    )


def test_criterion_8_inequality_reports():
    grid = default_p_grid()
    dims = (2, 3, 5, 10, 20)
    ok = True
    worst_santalo = -math.inf
    worst_chain = -math.inf
    for n in dims:
        ball = pp.phi_pball(n, 2.0)
        log_ball_product = ball.log_volume + ball.log_polar_volume
        for p in grid:
            rep = pp.inequality_report(n, p)
            phi = rep.phi
            rel = math.expm1(rep.log_santalo_product - log_ball_product)
            worst_santalo = max(worst_santalo, rel)
            worst_chain = max(worst_chain, (rep.lower_bound - phi) / phi)
    ok &= worst_santalo <= 1e-10 and worst_chain <= 1e-10
    _report(
        8,
        ok,
        f"volume product vs ball on {len(dims)}x{len(grid)} grid, worst rel slack "
        f"{worst_santalo:.2e}; chain worst {worst_chain:.2e} (caps 1e-10)",
    )


def test_criterion_9_specfun_accuracy():
    rng = np.random.default_rng(909)
    xs = np.exp(rng.uniform(math.log(0.05), math.log(50.0), size=200))
    funcs = {1: pp.trigamma, 2: pp.tetragamma, 3: pp.pentagamma}
    worst_quad = 0.0
    for i, x in enumerate(xs):
        k = 1 + i % 3
        sign = (-1.0) ** (k + 1)
        val, _ = quad(
            lambda t: t**k * math.exp(-x * t) / (-math.expm1(-t)),
            0.0,
            np.inf,
            epsabs=1e-13,
            epsrel=1e-12,
            limit=200,
        )
        ref = sign * val
        worst_quad = max(worst_quad, abs(funcs[k](float(x)) - ref) / abs(ref))
    series = max(
        abs(pp.digamma(1.0) + EULER_GAMMA),
        abs(pp.trigamma(1.0) - math.pi**2 / 6.0),
        abs(pp.tetragamma(1.0) + 2.0 * ZETA3),
        abs(pp.pentagamma(1.0) - math.pi**4 / 15.0),
    )
    ok = worst_quad <= 1e-8 and series <= 1e-10
    _report(
        9,
        ok,
        f"polygamma vs integral-representation quadrature worst rel {worst_quad:.2e} "
        f"(cap 1e-8, 200 points, orders 1-3); series oracles at x=1 worst {series:.2e} (cap 1e-10)",
    )
