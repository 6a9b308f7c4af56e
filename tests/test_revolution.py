"""Revolution-body tests: named products, grid polars, exact moments.

Closed-form oracles, each derived by direct integration before the
implementation existed:

  * named polar profiles: the ball profile sqrt(1-t^2) is self-polar, the
    cylinder (r = 1) and cone (r = 1 - |t|) profiles are each other's polars;
  * moment triples (m0, m2, mp) = Int r^{n-1}, Int t^2 r^{n-1}, Int r^{n+1}:
      cylinder, n=2: (2, 2/3, 2)
      ball,     n=3: (4/3, 4/15, 16/15)
      cone,     n=2: (1, 1/6, 1/2)
  * phi values: ball profile in dim n is the euclidean ball, n/(n+2)^2;
    the cylinder profile in dim 2 is the square, 1/9, splitting into two
    equal summands 1/18; the pball:P profile in dim n is the p-product of
    a euclidean slice ball with an interval, so the decomposition factor
    route gives an independent value to compare against;
  * section-moment products: cylinder 1/12 (uniform marginal), ball n=3:
    m2/m0^3 = (4/15)/(4/3)^3 = 9/80.

Grid profiles are checked against an independent numeric oracle: the polar
profile from its definition, r2(s) = min over knots of (1 - t s) / r (the
ratio is monotone on each linear piece, so the minimum sits at a knot), and
scipy's adaptive quadrature split at the polar's kinks.  One grid pins a
value computed with mpmath at 30 digits.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from polarphi import revolution
from polarphi.errors import DomainError, VerificationError
from polarphi.exact import PHI_INTERVAL, phi_combine, phi_pball
from polarphi.revolution import (
    _gauss_legendre,
    decomposition_report,
    parse_profile,
    phi_revolution,
    polar_profile,
    profile_integrals,
    profile_to_json,
)

GRID_201 = np.linspace(-1.0, 1.0, 201)

README_GRID = {"grid": [[-1, 0], [-0.5, 0.75], [0, 1], [0.5, 0.75], [1, 0]]}

_REGRESSION_HALF = [
    (0.0, 1.0),
    (0.282978133853839, 0.9295074835600352),
    (0.43726885875304994, 0.8598083678738764),
    (0.5560086580056113, 0.8024153163223126),
    (0.9194558727056631, 0.5928292952287895),
    (1.0, 0.4497638650855781),
]
# a concave grid whose polar has a kink at s = 0.249109, inside the first
# panel of a quadrature that splits only at {-1, 0, 1}
REGRESSION_GRID = {
    "grid": [[-t, r] for t, r in _REGRESSION_HALF[:0:-1]] + [[t, r] for t, r in _REGRESSION_HALF]
}


def test_named_polar_closed_forms():
    ball = parse_profile("ball")
    assert np.abs(polar_profile(ball).values(GRID_201) - np.sqrt(1.0 - GRID_201**2)).max() <= 1e-13
    cyl = parse_profile("cylinder")
    assert np.abs(polar_profile(cyl).values(GRID_201) - (1.0 - np.abs(GRID_201))).max() <= 1e-13
    cone = parse_profile("cone")
    assert np.abs(polar_profile(cone).values(GRID_201) - 1.0).max() <= 1e-13
    for name, P in (("pball:3", 3.0), ("pball:1.5", 1.5), ("pball:1", 1.0)):
        Q = math.inf if P == 1.0 else P / (P - 1.0)
        want = 1.0 if math.isinf(Q) else (1.0 - np.abs(GRID_201) ** Q) ** (1.0 / Q)
        got = polar_profile(parse_profile(name)).values(GRID_201)
        assert np.abs(got - want).max() <= 1e-13, name


def test_polar_involution_named():
    for name in ("ball", "cylinder", "cone", "pball:1.5", "pball:3", "pball:7"):
        prof = parse_profile(name)
        double = polar_profile(polar_profile(prof))
        err = np.abs(double.values(GRID_201) - prof.values(GRID_201)).max()
        assert err <= 1e-13, (name, err)


def test_profile_values_scalar_batch_agree():
    for name in ("ball", "cone", "pball:2.5", README_GRID):
        prof = polar_profile(parse_profile(name))
        batch = prof.values(GRID_201)
        scalars = np.array([prof.values(float(t))[0] for t in GRID_201])
        assert np.abs(batch - scalars).max() <= 1e-14, name


def test_moment_triples():
    m = profile_integrals(parse_profile("cylinder"), 2)
    assert np.abs(np.array(m) - [2.0, 2.0 / 3.0, 2.0]).max() <= 1e-11
    m = profile_integrals(parse_profile("ball"), 3)
    assert np.abs(np.array(m) - [4.0 / 3.0, 4.0 / 15.0, 16.0 / 15.0]).max() <= 1e-11
    m = profile_integrals(parse_profile("cone"), 2)
    assert np.abs(np.array(m) - [1.0, 1.0 / 6.0, 0.5]).max() <= 1e-11


def test_ball_profile_is_euclidean_ball():
    for n in (2, 3, 5):
        rep = phi_revolution(parse_profile("ball"), n)
        ref = n / (n + 2.0) ** 2
        assert abs(rep.phi - ref) <= 1e-8, n


def test_cylinder_dim2_is_square():
    rep = phi_revolution(parse_profile("cylinder"), 2)
    assert abs(rep.phi - 1.0 / 9.0) <= 1e-10
    assert abs(rep.first_summand - 1.0 / 18.0) <= 1e-11
    assert abs(rep.second_summand - 1.0 / 18.0) <= 1e-11
    assert abs(rep.hensley_product_sq - 1.0 / 12.0) <= 1e-11
    assert abs(rep.santalo_ratio - 8.0 / math.pi**2) <= 1e-10


NAMED = (
    ("ball", 2.0),
    ("cone", 1.0),
    ("cylinder", math.inf),
    ("pball:1", 1.0),
    ("pball:1.5", 1.5),
    ("pball:3", 3.0),
    ("pball:7", 7.0),
)


def test_pball_profile_matches_factor_route():
    # every named profile is [-1, 1] x_P B_2^{n-1}; phi_revolution judges its
    # volume-product ratio, formed in logs, so no volume underflows by n = 1000
    for name, P in NAMED:
        for n in (2, 3, 5, 10, 50, 200, 300, 1000):
            rep = phi_revolution(parse_profile(name), n)
            oracle = phi_combine(phi_pball(n - 1, 2.0).phi, n - 1, PHI_INTERVAL, 1, P)
            tol = 1e-12 if n <= 200 else 1e-11
            assert abs(rep.phi - oracle) <= tol * oracle, (name, n)


def test_report_invariants():
    for name, n in (("ball", 4), ("cone", 3), ("pball:2.5", 3), ("cylinder", 5)):
        rep = decomposition_report(parse_profile(name), n)
        assert rep.dim == n
        assert rep.second_summand <= rep.second_summand_bound + 1e-10
        assert abs(rep.second_summand_bound - (n - 1.0) / (n + 1.0) ** 2) <= 1e-12
        assert rep.santalo_ratio <= 1.0 + 1e-9
        assert 1.0 / 12.0 - 1e-9 <= rep.hensley_product_sq <= 0.5 + 1e-9
        assert rep.phi <= n / (n + 2.0) ** 2 + 1e-9
        assert rep.extras["scaled_phi"] == n * rep.phi
        assert rep.extras["scaled_first_summand"] == n**2 * rep.first_summand


def test_phi_revolution_judges_the_section_moment_window(monkeypatch):
    # the ball's moments with m2 scaled by 1e-3 keep the other three bounds
    # (the first summand only shrinks) but put m2 / m0^3 below 1/12
    assert decomposition_report is phi_revolution
    real = revolution.profile_integrals

    def profile_integrals(profile, n):
        m0, m2, mp = real(profile, n)
        return m0, 1e-3 * m2, mp

    monkeypatch.setattr(revolution, "profile_integrals", profile_integrals)
    with pytest.raises(VerificationError, match="1/12"):
        phi_revolution(parse_profile("ball"), 3)


def test_ball3_hensley():
    rep = phi_revolution(parse_profile("ball"), 3)
    assert abs(rep.hensley_product_sq - 9.0 / 80.0) <= 1e-10


def test_grid_profile_matches_named():
    # the cone as an explicit two-segment grid
    hat = parse_profile({"grid": [[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]})
    a = profile_integrals(hat, 3)
    b = profile_integrals(parse_profile("cone"), 3)
    assert np.abs(np.array(a) - np.array(b)).max() <= 1e-12
    flat = parse_profile({"grid": [[-1.0, 1.0], [1.0, 1.0]]})
    c = profile_integrals(flat, 2)
    d = profile_integrals(parse_profile("cylinder"), 2)
    assert np.abs(np.array(c) - np.array(d)).max() <= 1e-12


def test_grid_validation_rejections():
    with pytest.raises(DomainError, match="concave"):
        parse_profile({"grid": [[-1.0, 0.2], [-0.5, 0.1], [0.0, 1.0], [0.5, 0.1], [1.0, 0.2]]})
    with pytest.raises(DomainError, match="even"):
        parse_profile({"grid": [[-1.0, 0.5], [0.0, 1.0], [1.0, 0.0]]})
    with pytest.raises(DomainError, match="rescal"):
        parse_profile({"grid": [[-1.0, 0.0], [0.0, 0.9], [1.0, 0.0]]})
    with pytest.raises(DomainError, match="span"):
        parse_profile({"grid": [[-0.5, 1.0], [0.5, 1.0]]})
    with pytest.raises(DomainError):
        parse_profile({"grid": [[-1.0, 1.0]]})  # too few knots
    with pytest.raises(DomainError):
        parse_profile({"grid": [[-1.0, 0.0], [0.0], [1.0, 0.0]]})  # ragged
    with pytest.raises(DomainError):
        parse_profile({"grid": [[-1.0, 0.0], [0.0, "one"], [1.0, 0.0]]})
    with pytest.raises(DomainError):
        parse_profile({"grid": [[-1.0, 1.0], [0.0, -0.5], [1.0, 1.0]]})  # negative r
    with pytest.raises(DomainError):
        parse_profile("pball:0.5")
    with pytest.raises(DomainError):
        parse_profile("egg")


def test_polar_nesting_is_closed():
    for desc in ("cone", "pball:3", README_GRID, REGRESSION_GRID):
        prof = parse_profile(desc)
        once = polar_profile(prof)
        thrice = polar_profile(polar_profile(once))
        err = np.abs(thrice.values(GRID_201) - once.values(GRID_201)).max()
        assert err <= 1e-13, (desc, err)


def test_profile_serialization():
    assert profile_to_json(parse_profile("ball")) == "ball"
    assert profile_to_json(parse_profile("pball:1.5")) == "pball:1.5"
    grid = {"grid": [[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]}
    assert profile_to_json(parse_profile(grid)) == grid
    # polars serialize too, and parse back to the same profile
    assert profile_to_json(polar_profile(parse_profile("ball"))) == "ball"
    assert profile_to_json(polar_profile(parse_profile("cylinder"))) == "cone"
    assert profile_to_json(polar_profile(parse_profile("cone"))) == "cylinder"
    assert profile_to_json(polar_profile(parse_profile("pball:1"))) == "cylinder"
    assert profile_to_json(polar_profile(parse_profile("pball:3"))) == "pball:1.5"
    assert profile_to_json(polar_profile(parse_profile(grid))) == {"grid": [[-1.0, 1.0], [1.0, 1.0]]}
    for desc in (README_GRID, REGRESSION_GRID):
        polar = polar_profile(parse_profile(desc))
        text = profile_to_json(polar)
        assert np.array_equal(parse_profile(text).knots, polar.knots)
        assert profile_to_json(parse_profile(text)) == text


def test_dim_validation():
    # the bound is the revolution's own n, though phi_pball runs at n - 1
    for n in (1, 1001):
        with pytest.raises(DomainError, match=f"got {n}$"):
            profile_integrals(parse_profile("ball"), n)
        with pytest.raises(DomainError, match=f"got {n}$"):
            phi_revolution(parse_profile("cone"), n)
    # a non-integer n is named as given, on a grid as on a named profile
    for desc in ("cone", README_GRID):
        with pytest.raises(DomainError, match="got 3.5$"):
            phi_revolution(parse_profile(desc), 3.5)
    # pball:P takes the exponent rule, and P = inf is the cylinder
    for spec in ("pball:abc", "pball:0.5", "pball:nan", "pball:inf"):
        with pytest.raises(DomainError):
            parse_profile(spec)


def _random_concave_profile(slopes):
    """Even concave PL profile: min of a few tent functions a - b|t|, r(0)=1."""
    ts = np.linspace(-1.0, 1.0, 41)
    vals = np.full_like(ts, np.inf)
    for a, b in slopes:
        vals = np.minimum(vals, a - b * np.abs(ts))
    vals = np.maximum(vals / vals[20], 0.0)
    vals[0] = vals[-1] = max(vals[0], 0.0)
    return parse_profile({"grid": [[float(t), float(v)] for t, v in zip(ts, vals)]})


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1.0, max_value=2.0),
            st.floats(min_value=0.0, max_value=0.9),
        ),
        min_size=1,
        max_size=4,
    )
)
@example([(1.0, 4e-13)])  # a nearly flat top: its polar knots lie 8e-13 apart
def test_polar_involution_random_grids(slopes):
    prof = _random_concave_profile(slopes)
    double = polar_profile(polar_profile(prof))
    ts = np.linspace(-1.0, 1.0, 101)
    err = np.abs(double.values(ts) - prof.values(ts)).max()
    assert err <= 1e-13, err


def _perturbed_collinear_grid(rng):
    """An even concave grid with collinear knots, radii perturbed by <= 5e-13.

    The perturbations stay within _validate_grid's 1e-12 tolerances on
    evenness and r(0) = 1, or the grid is rejected (then None).
    """
    half = np.sort(rng.choice(np.arange(1, 20), size=rng.integers(2, 6), replace=False)) / 20.0
    mid = [0.0] if rng.random() < 0.5 else []
    ts = np.concatenate([[-1.0], -half[::-1], mid, half, [1.0]])
    a, b = rng.uniform(1.0, 2.0, 3), rng.uniform(0.0, 2.0, 3)
    r = np.maximum(np.min(a[:, None] - b[:, None] * np.abs(ts), axis=0) / a.min(), 0.0)
    r = np.maximum(r + (r > 0.0) * rng.uniform(-0.5e-12, 0.5e-12, r.shape), 0.0)
    try:
        return parse_profile({"grid": [[float(t), float(v)] for t, v in zip(ts, r)]})
    except DomainError:
        return None


def test_polars_of_perturbed_grids_round_trip():
    # the polar and the double polar of every accepted grid serialize and
    # parse back bit-exactly (even knots, r(0) = 1 exactly)
    rng = np.random.default_rng(1349)
    checked = 0
    while checked < 40:
        prof = _perturbed_collinear_grid(rng)
        if prof is None:
            continue
        checked += 1
        for q in (polar_profile(prof), polar_profile(polar_profile(prof))):
            again = parse_profile(profile_to_json(q))
            assert np.array_equal(again.knots, q.knots), prof.knots


def test_polar_of_vanishing_end_radius_round_trips():
    # below an end radius of about 1e-16 the last edge's polar vertex is
    # (1, 1) already; a closing knot (1, 0) after it repeated t = 1, and the
    # polar could not be parsed back
    near = phi_revolution(parse_profile({"grid": [[-1, 1e-16], [0, 1], [1, 1e-16]]}), 4).phi
    for end in (1e-300, 1e-17):
        prof = parse_profile({"grid": [[-1, end], [0, 1], [1, end]]})
        polar = polar_profile(prof)
        assert polar.knots.tolist() == [[-1.0, 1.0], [1.0, 1.0]], (end, polar.knots)
        text = profile_to_json(polar)
        assert np.array_equal(parse_profile(text).knots, polar.knots), end
        double = polar_profile(polar)
        assert np.abs(double.values(GRID_201) - prof.values(GRID_201)).max() <= 1e-13, end
        assert phi_revolution(prof, 4).phi == pytest.approx(near, rel=1e-13), end


def test_gauss_legendre_rule_is_exact_to_its_degree():
    # the m-point rule integrates t^j exactly for j <= 2m - 1, up to rounding
    for m in (2, 3, 6, 26, 101):
        x, w = _gauss_legendre(m)
        for j in range(2 * m):
            exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
            assert abs(float(np.sum(w * x**j)) - exact) <= 1e-13, (m, j)


def test_regression_grid_polar_moment_matches_mpmath():
    # mpmath at 30 digits, split at every kink of the polar profile
    m0 = profile_integrals(polar_profile(parse_profile(REGRESSION_GRID)), 50)[0]
    assert abs(m0 - 0.6255925329444987) <= 1e-12 * 0.6255925329444987, m0


def _derandomized_concave_grid(rng):
    """Even concave grid: k random knots on (0, 1), decreasing slopes, mirrored."""
    k = int(rng.integers(1, 6))
    ts = np.concatenate([[0.0], np.sort(rng.uniform(0.02, 0.98, k)), [1.0]])
    slopes = -np.sort(rng.uniform(0.0, 1.0, k + 1))
    end = 0.0 if rng.uniform() < 0.5 else float(rng.uniform(0.05, 0.8))
    drop = -np.sum(slopes * np.diff(ts))
    rs = np.concatenate([[1.0], 1.0 + np.cumsum(slopes * np.diff(ts)) * (1.0 - end) / drop])
    rs[-1] = end
    half = list(zip(ts.tolist(), rs.tolist()))
    return {"grid": [[-t, r] for t, r in half[:0:-1]] + [[t, r] for t, r in half]}


def _oracle_moments(r, n, points):
    def moment(f):
        val, _ = quad(f, -1.0, 1.0, points=points, epsabs=0.0, epsrel=1e-13, limit=500)
        return val

    return (
        moment(lambda t: r(t) ** (n - 1)),
        moment(lambda t: t * t * r(t) ** (n - 1)),
        moment(lambda t: r(t) ** (n + 1)),
    )


def test_random_grid_moments_match_scipy():
    rng = np.random.default_rng(20240601)
    for case in range(20):
        desc = _derandomized_concave_grid(rng)
        prof = parse_profile(desc)
        polar = polar_profile(prof)
        kt, kr = prof.knots[:, 0], prof.knots[:, 1]
        pos = kr > 0.0

        def r2(s):
            # the polar profile by its definition, independent of polar_profile
            return float(np.min((1.0 - kt[pos] * s) / kr[pos]))

        s = np.linspace(-1.0, 1.0, 401)
        direct = np.min((1.0 - np.outer(s, kt[pos])) / kr[pos], axis=1)
        assert np.abs(polar.values(s) - direct).max() <= 1e-13, case
        for n in (3, 10, 50):
            got = profile_integrals(prof, n) + profile_integrals(polar, n)
            want = _oracle_moments(lambda t: float(np.interp(t, kt, kr)), n, kt[1:-1])
            want += _oracle_moments(r2, n, polar.knots[1:-1, 0])
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-10 * abs(w), (case, n, g, w)
