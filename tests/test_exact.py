"""Closed-form route tests.

Hand-checkable oracles (independent of the recursion being tested):
  * phi([-1,1]) = (1/4)(Int t^2)^2 = 1/9 directly from the definition;
  * phi(B_2^n) = n/(n+2)^2: both integrals are radial, Int_K |x|^2 =
    n/(n+2) |K| after normalizing, and the polar pairing averages to 1/n of
    the product of the radial second moments;
  * small volumes: |B_1^3| = 4/3, |B_inf^3| = 8, |B_2^2| = pi;
  * coordinate second moments: Int_{[-1,1]} t^2 = 2/3,
    Int_{B_2^2} x_1^2 = pi/4, Int_{B_inf^3} x_1^2 = 8/3;
  * the factor at p in {1, inf} is the rational (y1+1)(y1+2)/((y2+1)(y2+2)).

Everything else cross-checks two independent code paths against each other
(recursion vs moment route, dual exponents, product combination), or checks
the closed forms against mpmath and the slice recursion for the volume.
"""

import json
import math
import sys
from dataclasses import fields

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarphi import cli
from polarphi.errors import DomainError
from polarphi.exact import (
    F_FACTOR_Y2_MAX,
    PHI_INTERVAL,
    PHI_PBALL_DIM_MAX,
    _log_r,
    _log_volume,
    dual_exponent,
    f_factor,
    inequality_report,
    pball_moment2,
    pball_volume,
    phi_combine,
    phi_pball,
    phi_via_moments,
)
from polarphi.harness import default_p_grid

FINITE_PS = (1.0, 1.25, 1.5, 2.0, 3.0, 8.0, 64.0)
ALL_PS = FINITE_PS + (math.inf,)


def test_phi_interval_constant():
    assert PHI_INTERVAL == 1.0 / 9.0
    assert abs(phi_pball(1, 2.0).phi - 1.0 / 9.0) <= 1e-15
    for p in ALL_PS:
        assert abs(phi_pball(1, p).phi - 1.0 / 9.0) <= 1e-13, p


def test_f_factor_rational_endpoints():
    # (y1+1)(y1+2)/((y2+1)(y2+2)) at p in {1, inf}
    assert abs(f_factor(1.0, 2.0, 1.0) - 0.5) <= 1e-15
    assert abs(f_factor(1.0, 2.0, math.inf) - 0.5) <= 1e-15
    assert abs(f_factor(2.0, 5.0, 1.0) - 12.0 / 42.0) <= 1e-15
    assert abs(f_factor(1.0, 2.0, 2.0) - 9.0 / 16.0) <= 1e-12


def test_f_factor_endpoint_continuity():
    for y1, y2 in ((1.0, 2.0), (2.0, 3.0), (3.0, 5.0), (5.0, 20.0)):
        lim = f_factor(y1, y2, 1.0)
        near = f_factor(y1, y2, 1.0 + 1e-6)
        assert abs(near - lim) <= 1e-5 * max(1.0, abs(lim)), (y1, y2)
        big = f_factor(y1, y2, 1e7)
        at_inf = f_factor(y1, y2, math.inf)
        assert abs(big - at_inf) <= 1e-5 * max(1.0, abs(at_inf)), (y1, y2)


def test_euclidean_ball_closed_form():
    for n in range(1, 51):
        ref = n / (n + 2.0) ** 2
        assert abs(phi_pball(n, 2.0).phi - ref) <= 1e-12 * ref, n


def test_cross_polytope_small_dims():
    assert abs(phi_pball(2, 1.0).phi - 1.0 / 9.0) <= 1e-13
    assert abs(phi_pball(3, 1.0).phi - 1.0 / 10.0) <= 1e-13
    # and the cube matches by duality
    assert abs(phi_pball(2, math.inf).phi - 1.0 / 9.0) <= 1e-13
    assert abs(phi_pball(3, math.inf).phi - 1.0 / 10.0) <= 1e-13


def test_tabled_recursion_is_bit_identical(f_factor_loop, capsys):
    # the log-gamma table must not move a single bit against f_factor per step
    grid = default_p_grid()
    at_200 = {}
    for n in (1, 2, 3, 5, 10, 50, 200):
        for p in grid:
            ref = f_factor_loop(n, p)
            assert phi_pball(n, p).phi == ref, (n, p)
            if n == 200:
                at_200[p] = ref
    assert cli.main(["scan", "--dim", "200"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows == [
        {
            "dim": 200,
            "p": "inf" if math.isinf(p) else p,
            "phi": at_200[p],
            "margin": at_200[p] - at_200[2.0],
        }
        for p in grid
    ]


def test_volumes_small():
    assert abs(pball_volume(3, math.inf) - 8.0) <= 1e-13 * 8.0
    assert abs(pball_volume(3, 1.0) - 4.0 / 3.0) <= 1e-13
    assert abs(pball_volume(2, 2.0) - math.pi) <= 1e-13 * math.pi
    assert abs(pball_volume(2, 1.0) - 2.0) <= 1e-13 * 2.0
    assert abs(pball_volume(1, 7.0) - 2.0) <= 1e-13 * 2.0


def test_volume_past_the_double_range_is_a_domain_error():
    # |B_inf^n| = |(B_1^n)°| = 2^n: at n = 1,024 about the largest double, at
    # 1,025 past it; an OverflowError from math.exp is not a DomainError.
    # At the small end |B_1^200| = 2^200 / 200! is about 2.0e-315, a
    # subnormal double with six significant digits left
    top = sys.float_info.max
    assert pball_volume(1024, math.inf) == pytest.approx(top, rel=1e-13)
    for call, n, p in (
        (pball_volume, 1025, math.inf),
        (pball_moment2, 1026, math.inf),
        (pball_volume, 200, 1.0),
        (pball_moment2, 200, 1.0),
    ):
        with pytest.raises(DomainError, match="not a normal double"):
            call(n, p)
    # in the normal range the value is e^{ln |B_p^n|}, bit for bit
    for n in range(1, 51):
        for p in ALL_PS:
            assert pball_volume(n, p) == math.exp(_log_volume(n, p)), (n, p)
            assert pball_moment2(n, p) == math.exp(_log_volume(n, p) + _log_r(n, p)), (n, p)
    # the records keep logs, finite up to the routes' own dimension bound
    n = PHI_PBALL_DIM_MAX
    for p in (1.0, math.inf):
        bd = phi_via_moments(n, p)
        assert math.isfinite(bd.log_volume) and math.isfinite(bd.log_polar_volume)
        assert max(bd.log_volume, bd.log_polar_volume) == pytest.approx(n * math.log(2.0))


def test_volume_recursion_vs_closed_form(slice_volume):
    for n in range(1, 51):
        for p in ALL_PS:
            a = slice_volume(n, p)
            b = pball_volume(n, p)
            assert abs(a - b) <= 1e-12 * abs(b), (n, p)


def test_moment2_examples():
    assert abs(pball_moment2(1, 1.0) - 2.0 / 3.0) <= 1e-13
    assert abs(pball_moment2(2, 2.0) - math.pi / 4.0) <= 1e-13
    assert abs(pball_moment2(3, math.inf) - 8.0 / 3.0) <= 1e-13 * 3.0


def test_moment2_formula_against_elementary_values_and_moment_route():
    # the Dirichlet second-moment formula against elementary integrals ...
    cases = [
        (1, 1.0, 2.0 / 3.0),  # Int_{-1}^1 x^2
        (2, 2.0, math.pi / 4.0),  # polar coordinates over the unit disk
        (3, math.inf, 8.0 / 3.0),  # (2/3) * 2^2 over the cube
    ]
    for n, p, want in cases:
        assert abs(pball_moment2(n, p) - want) <= 1e-12 * want, (n, p)
    # ... and the 1-unconditional identity I(B_p^n) = n * m2(n, p) * m2(n, q)
    # against the independent moment-recursion route
    for n, p in ((2, 1.5), (3, 3.0)):
        q = p / (p - 1.0)
        ident = math.log(n * pball_moment2(n, p) * pball_moment2(n, q))
        bd = phi_via_moments(n, p)
        cross = math.log(bd.phi) + bd.log_volume + bd.log_polar_volume
        assert abs(ident - cross) <= 1e-10, (n, p)


def test_moment_route_matches_recursion():
    for n in range(2, 21):
        for p in ALL_PS:
            a = phi_pball(n, p)
            b = phi_via_moments(n, p)
            assert abs(a.phi - b.phi) <= 1e-10 * a.phi, (n, p)
            assert abs(a.log_volume - b.log_volume) <= 1e-11
            log_cross = [math.log(x.phi) + x.log_volume + x.log_polar_volume for x in (a, b)]
            assert abs(log_cross[0] - log_cross[1]) <= 1e-10


def test_moment_route_small_exact():
    assert abs(phi_via_moments(2, 2.0).phi - 0.125) <= 1e-13
    assert abs(phi_via_moments(2, 1.5).phi - phi_pball(2, 1.5).phi) <= 1e-12


def test_moment_route_answers_endpoints():
    # R(n, 1) = 2/((n+1)(n+2)) and R(n, inf) = 1/3, so phi = 2n/(3(n+1)(n+2))
    assert abs(phi_via_moments(3, 1.0).phi - 1.0 / 10.0) <= 1e-15
    assert abs(phi_via_moments(3, math.inf).phi - 1.0 / 10.0) <= 1e-15
    for n in (1, 2, 5, 20, 200):
        for p in (1.0, math.inf):
            a = phi_pball(n, p).phi
            assert abs(phi_via_moments(n, p).phi - a) <= 1e-12 * a, (n, p)
    with pytest.raises(DomainError):
        phi_via_moments(3, 0.5)


def _phi_mpmath(n, p):
    """n R(n, p) R(n, q) from 40-digit Gamma functions."""

    def r(e):
        if e == mpmath.inf:
            return mpmath.mpf(1) / 3
        return (
            mpmath.gamma(3 / e)
            * mpmath.gamma(1 + n / e)
            / (mpmath.gamma(1 / e) * mpmath.gamma(1 + (n + 2) / e))
        )

    with mpmath.workdps(40):
        e = mpmath.inf if math.isinf(p) else mpmath.mpf(p)
        q = mpmath.inf if e == 1 else (mpmath.mpf(1) if e == mpmath.inf else e / (e - 1))
        return float(n * r(e) * r(q))


def test_moment_route_against_mpmath():
    for n in (2, 3, 5, 10, 50, 200):
        for p in (1.0, 1.05, 1.25, 1.5, 2.0, 3.0, 8.0, 64.0, math.inf):
            ref = _phi_mpmath(n, p)
            got = phi_via_moments(n, p).phi
            assert abs(got - ref) <= 1e-12 * ref, (n, p)


def test_duality():
    for n in range(1, 21):
        for p in ALL_PS:
            q = dual_exponent(p).q
            a = phi_pball(n, p).phi
            b = phi_pball(n, q).phi
            assert abs(a - b) <= 1e-12 * a, (n, p)


def test_dual_exponent_pairs():
    assert dual_exponent(1.0).q == math.inf
    assert dual_exponent(math.inf).q == 1.0
    assert dual_exponent(2.0).q == 2.0
    pair = dual_exponent(1.5)
    assert abs(pair.q - 3.0) <= 1e-15
    with pytest.raises(DomainError):
        dual_exponent(0.9)


def test_phi_combine_consistency():
    for n, m in ((1, 1), (1, 2), (2, 3), (3, 5), (5, 10)):
        for p in ALL_PS:
            whole = phi_pball(n + m, p).phi
            parts = phi_combine(phi_pball(n, p).phi, n, phi_pball(m, p).phi, m, p)
            assert abs(whole - parts) <= 1e-12 * whole, (n, m, p)


def _hanner_phi(n):
    """phi of every Hanner polytope in dimension n: 2n / (3(n+1)(n+2))."""
    return 2.0 * n / (3.0 * (n + 1.0) * (n + 2.0))


def test_every_hanner_tree_has_one_phi():
    # every x_p tree shape with up to 7 interval leaves, under every
    # assignment of p in {1, inf} to its nodes: Catalan(k-1) 2^(k-1) trees
    # with k leaves, 10,067 in all, and phi depends only on the dimension
    trees = {1: [PHI_INTERVAL]}
    for k in range(2, 8):
        trees[k] = [phi_combine(a, m, b, k - m, p)
                    for m in range(1, k) for a in trees[m] for b in trees[k - m]
                    for p in (1.0, math.inf)]
    assert sum(map(len, trees.values())) == 10_067
    for k, phis in trees.items():
        ref = _hanner_phi(k)
        assert max(abs(v - ref) for v in phis) <= 1e-14 * ref, k
    for n in (1, 2, 3, 10, 50, 200):
        ref = _hanner_phi(n)
        for p in (1.0, math.inf):
            assert abs(phi_pball(n, p).phi - ref) <= 1e-14 * ref, (n, p)


def test_random_product_trees_lie_between_cube_and_ball():
    # phi(B_inf^n) <= phi(A x_p B) <= n/(n+2)^2 on x_p trees of intervals
    # with mixed exponents
    rng = np.random.default_rng(19)
    ps = (1.0, 1.1, 1.5, 2.0, 3.0, 10.0, math.inf)

    def tree(n):
        if n == 1:
            return PHI_INTERVAL
        m = int(rng.integers(1, n))
        return phi_combine(tree(m), m, tree(n - m), n - m, ps[rng.integers(len(ps))])

    for _ in range(1000):
        n = int(rng.integers(1, 31))
        phi = tree(n)
        assert _hanner_phi(n) - 1e-12 <= phi <= n / (n + 2.0) ** 2 + 1e-12, (n, phi)


def test_euclidean_maximizes_over_p():
    for n in (2, 3, 5, 10, 20):
        phi2 = phi_pball(n, 2.0).phi
        bound = n / (n + 2.0) ** 2
        for p in (1.0, 1.3, 1.7, 2.5, 4.0, 16.0, math.inf):
            v = phi_pball(n, p).phi
            assert v <= bound + 1e-12, (n, p)
            if p != 2.0:
                assert v < phi2, (n, p)


def test_inequality_report_fields_and_checks():
    # the report only computes; `verify inequalities` judges (tests/test_cli.py)
    rep = inequality_report(3, 1.5)
    assert [f.name for f in fields(rep)] == [
        "dim", "p", "phi", "log_santalo_product", "lower_bound"]
    assert rep.dim == 3 and rep.p == 1.5
    b2 = phi_pball(3, 2.0)
    assert rep.log_santalo_product <= b2.log_volume + b2.log_polar_volume + 1e-10
    assert rep.lower_bound <= phi_pball(3, 1.5).phi + 1e-10
    # in logs, the report has no volume to underflow at the largest dimension
    top = inequality_report(PHI_PBALL_DIM_MAX, 1.0)
    assert math.isfinite(top.log_santalo_product)
    assert 0.0 < top.lower_bound <= top.phi


def _f_factor_mpmath(y1, y2, p):
    with mpmath.workdps(60):
        y1, y2, p = mpmath.mpf(y1), mpmath.mpf(y2), mpmath.mpf(p)
        q = p / (p - 1)
        lg = mpmath.loggamma
        lf = (
            2 * (mpmath.log(y1 + 2) + mpmath.log(y2) - mpmath.log(y1) - mpmath.log(y2 + 2))
            + lg((y1 + 2) / p) + lg((y1 + 2) / q) + lg(y2 / p) + lg(y2 / q)
            - lg((y2 + 2) / p) - lg((y2 + 2) / q) - lg(y1 / p) - lg(y1 / q)
        )
        return mpmath.exp(lf)


def test_f_factor_agrees_with_mpmath_up_to_its_y2_bound():
    y2 = F_FACTOR_Y2_MAX
    for y1 in (1e-3, 1.0, 100.0, y2 - 1.0):
        for p in (1.000001, 1.5, 3.0, 1e6):
            ref = _f_factor_mpmath(y1, y2, p)
            assert float(abs(f_factor(y1, y2, p) - ref) / ref) <= 1e-10, (y1, p)
    # above the bound the log-space sum loses digits, then overflows
    for big in (math.nextafter(y2, math.inf), 1e15, 1e308, math.inf):
        for p in (1.0, 1.5, math.inf):
            with pytest.raises(DomainError):
                f_factor(1.0, big, p)


def _phi_pball_mpmath(n, p):
    """phi(B_p^n) = n R(n, p) R(n, q) at 50 digits, R(n, p) = E x_1^2 over B_p^n."""
    def r(p):
        if math.isinf(p):
            return mpmath.mpf(1) / 3
        p = mpmath.mpf(p)
        a = (n - 1) / p + 1
        return mpmath.beta(3 / p, a) / mpmath.beta(1 / p, a)

    with mpmath.workdps(50):
        pair = dual_exponent(p)
        return n * r(pair.p) * r(pair.q)


def test_phi_pball_agrees_with_mpmath_up_to_its_dim_bound():
    n = PHI_PBALL_DIM_MAX
    for p in (1.0, 1.000001, 1.01, 1.1, 1.25, 1.5, 2.0, 3.0, 8.0, 64.0, 1e6, math.inf):
        ref = _phi_pball_mpmath(n, p)
        assert float(abs(phi_pball(n, p).phi - ref) / ref) <= 1e-10, p
        assert float(abs(phi_via_moments(n, p).phi - ref) / ref) <= 1e-10, p
    # above the bound the recursion's rounding keeps growing
    for p in (1.0, 1.25, 2.0, math.inf):
        for route in (phi_pball, phi_via_moments, inequality_report):
            with pytest.raises(DomainError, match=f"got {n + 1}"):
                route(n + 1, p)


def test_log_volume_against_mpmath():
    # |B_1^200| is subnormal and 2^1000 is near the top of the double range;
    # their logs are full-precision numbers
    def ref(n, p):
        with mpmath.workdps(50):
            if math.isinf(p):
                return n * mpmath.log(2)
            p = mpmath.mpf(p)
            return n * mpmath.log(2) + n * mpmath.loggamma(1 + 1 / p) - mpmath.loggamma(1 + n / p)

    for n in (200, PHI_PBALL_DIM_MAX):
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            want = ref(n, p)
            got = phi_pball(n, p).log_volume
            assert float(abs(got - want) / abs(want)) <= 1e-15, (n, p)


def test_domain_errors():
    # one rule per input: n is a positive integer of any integer type but
    # bool, and p a number but a bool, or decimal text ("1.5", "inf"), in
    # [1, inf]
    for n in (0, True, np.True_, 3.5, np.float64(3.0), "3", None):
        with pytest.raises(DomainError):
            phi_pball(n, 2.0)
    # a NumPy integer, as read from an array, is a dimension
    for n in (np.int64(3), np.uint8(3)):
        assert phi_pball(n, 2.0) == phi_pball(3, 2.0), type(n)
    # float also reads digit-group underscores ("1_5" is 15) and non-ASCII digits
    for p in (0.5, math.nan, "abc", None, [2.0], "nan", "0.5", "-inf", 10**400, "1_5", "1_000", "\uff13",
              True, np.True_):
        with pytest.raises(DomainError):
            phi_pball(3, p)
    assert phi_pball(3, "1.5") == phi_pball(3, 1.5) == phi_pball(3, "15e-1")
    assert phi_pball(3, " inf ") == phi_pball(3, math.inf)
    with pytest.raises(DomainError):
        f_factor(1.0, 2.0, 0.0)
    with pytest.raises(DomainError):
        pball_volume(-1, 2.0)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=1.0, max_value=1e6))
def test_dual_involution_property(p):
    q = dual_exponent(p).q
    back = dual_exponent(q).q
    assert abs(back - p) <= 1e-9 * p


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=1.0, max_value=64.0),
)
def test_phi_below_euclidean_property(n, p):
    assert phi_pball(n, p).phi <= n / (n + 2.0) ** 2 + 1e-12
