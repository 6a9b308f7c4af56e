"""Monte Carlo sampler tests.

Distributional oracles (independent closed forms):
  * for X uniform in a body K in R^n, the gauge satisfies P(g <= t) = t^n,
    so g^n is uniform on (0, 1) and, for the unit p-ball with finite p,
    E[sum_j |X_j|^p] = E[g^p] = n/(n+p);
  * coordinates are symmetric: every coordinate mean is 0;
  * estimates for p-balls and revolution bodies must bracket the exact phi
    (closed form, or the exact revolution moments) within 4 stderr;
  * on p-balls the Dirichlet moment formula gives the exact per-sample
    variance V_rb of the boundary-point estimator (conftest), so stderr^2 * M
    is checked against it over fixed seeds, with the coverage of +/- 2
    stderr;
  * every rule draws a cone-measure point u with g(u) = 1, and its moments
    match the exact ones: the Dirichlet law of (|u_j|^p) on p-balls, E u u^T
    on simplices, mixed-p products, named profiles and linear images, the
    profile moments on grid revolution bodies;
  * phi is linear invariant, and the estimator drops every linear map of
    the body, inside x_p factors too, so the estimate for T K is the
    estimate for K bit for bit.

Structural contracts: counter-based determinism (prefix invariance, exact
repeatability, rows that follow their sample indices under permutation and
gaps, for every sampling rule; Monte Carlo and RNG bits pinned to recorded
values), membership of every sample, and the vectorized p-ball kernel and
interior rule u V^{1/n} agreeing to roundoff with a one-sample-at-a-time
reference.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarphi import sampler
from polarphi.bodies import (
    POLAR,
    PRIMAL,
    Interval,
    PBall,
    Product,
    Revolution,
    Simplex,
    gauge_batch,
    make_linear_image,
    membership_batch,
    parse_body,
    polar_body,
    resolve_side,
)
from polarphi.errors import DomainError
from polarphi.exact import phi_pball
from polarphi.revolution import phi_revolution, profile_integrals
from polarphi.rng import _INV53, _SLOT_STRIDE, GOLD, _fin, parse_seed
from polarphi.sampler import (
    _BLOCK,
    MCEstimate,
    _dispatch_sample,
    estimate_phi,
    sample_bases_v,
    sample_body,
    sample_pball,
    u01_v,
)

CELLS = ((2, 1.0), (2, 2.0), (3, 1.5), (4, 3.0), (3, math.inf))
# the kernel's column loops only show their bugs at larger n (a sign flip that
# scrambled rows at (8, 1) passed every n <= 4 cell)
REFERENCE_CELLS = CELLS + ((8, 1.0), (8, math.inf), (10, 1.25))


# ---- scalar reference: one sample, one coordinate, one GS round at a time ----

MASK = np.uint64(0xFFFFFFFFFFFFFFFF)  # explicit 64-bit wraparound, as in splitmix64


def _sample_base(seed, i):
    return _fin((_fin(seed) + GOLD * i) & MASK)


def _u01(base, slot, k):
    v = _fin((base + GOLD * (slot * _SLOT_STRIDE + k)) & MASK)
    return (float(v >> np.uint64(11)) + 0.5) * _INV53


def _fill_pball_reference(out, seed, indices, p):
    # u_j = e_j |g_j|^(1/p) / (sum g)^(1/p) with g_j ~ Gamma(1/p) by GS, or
    # w_j / max |w| with w_j = 2U - 1 at p = inf; then x = u V^(1/n), V the
    # uniform at the first slot past the ball's n + 2
    m, n = out.shape
    pinf = p == np.inf
    a = 1.0 / p
    b = 1.0 + a / math.e
    mags = np.empty(n)
    for i in range(m):
        base = _sample_base(np.uint64(seed), indices[i])
        radius = _u01(base, np.uint64(n + 2), np.uint64(0)) ** (1.0 / n)
        if pinf:
            for j in range(n):
                out[i, j] = 2.0 * _u01(base, np.uint64(j), np.uint64(0)) - 1.0
            out[i] *= radius / np.abs(out[i]).max()
            continue
        s = 0.0
        for j in range(n):
            if p == 1.0:
                g = -np.log(_u01(base, np.uint64(j), np.uint64(0)))
                mag = g
            else:
                k = np.uint64(0)
                while True:
                    u1 = _u01(base, np.uint64(j), k)
                    u2 = _u01(base, np.uint64(j), k + np.uint64(1))
                    k = k + np.uint64(2)
                    q = b * u1
                    if q <= 1.0:
                        g = q**p  # may underflow at large p; negligible in the sum
                        if u2 <= np.exp(-g):
                            mag = q  # exact magnitude: (q^p)^(1/p)
                            break
                    else:
                        g = -np.log((b - q) * p)  # (b - q) / a
                        if u2 <= np.exp((a - 1.0) * np.log(g)):
                            mag = np.exp(a * np.log(g))
                            break
            mags[j] = mag
            s += g
        denom = s**a
        for j in range(n):
            u = _u01(base, np.uint64(n), np.uint64(j))
            sign = -1.0 if u < 0.5 else 1.0
            out[i, j] = sign * mags[j] / denom * radius
    return out


def _interior(body, seed, indices):
    """Uniform points of the body at these sample indices, as sample_body
    draws them: u V^(1/n), V at the first slot past the body's block."""
    u = _dispatch_sample(body, seed, indices)
    v = u01_v(sample_bases_v(seed, indices), sampler._slot_count(body), 0)
    return u * (v ** (1.0 / body.dim))[:, None]


def test_repeatability_bit_exact():
    a = sample_pball(3, 1.5, 2000, 99)
    b = sample_pball(3, 1.5, 2000, 99)
    assert np.array_equal(a, b)
    e1 = estimate_phi(PBall(2, 1.0), 5000, 7)
    e2 = estimate_phi(PBall(2, 1.0), 5000, 7)
    assert e1 == e2


def test_prefix_invariance():
    # sample i depends only on (seed, i): a shorter run is a prefix
    big = sample_pball(4, 3.0, 3000, 1234)
    small = sample_pball(4, 3.0, 500, 1234)
    assert np.array_equal(big[:500], small)
    off = sample_pball(4, 3.0, 100, 1234, index_offset=500)
    assert np.array_equal(big[500:600], off)


def test_lane_bookkeeping_follows_rows():
    # each row is a function of its own sample index, whatever order or gaps
    # the index array has: permuting the indices permutes the rows
    perm = np.random.default_rng(2024).permutation(3000)
    idx = np.arange(3000, dtype=np.uint64)
    run = np.arange(10**6, 10**6 + 9000, dtype=np.uint64)
    for p in (1.25, 3.0, 50.0):
        ref = _dispatch_sample(PBall(4, p), 606, idx)
        assert np.array_equal(_dispatch_sample(PBall(4, p), 606, idx[perm]), ref[perm]), p
        # a non-contiguous index set: every third index from 10^6
        every_third = _dispatch_sample(PBall(4, p), 606, run[::3])
        assert np.array_equal(every_third, _dispatch_sample(PBall(4, p), 606, run)[::3]), p


# float.hex of (estimate, stderr) for estimate_phi(PBall(n, p), 20_000, 2024),
# recorded with the all-pairs estimator on the cone-measure rule's boundary
# points over 64 index groups: a sampler rewrite that keeps the counter
# layout must reproduce them bit for bit
PINNED_MC = {
    (5, 3.0): ("0x1.9d2fc776142f0p-4", "0x1.a849da5a97409p-14"),
    (10, 1.25): ("0x1.0c30404e78e55p-4", "0x1.a2c33ed3d9533p-14"),
    (3, 1.5): ("0x1.e5b845b5abb1ap-4", "0x1.ed429a7e6d12cp-14"),
}


def test_monte_carlo_bits_pinned():
    for (n, p), (est_hex, err_hex) in PINNED_MC.items():
        est = estimate_phi(PBall(n, p), 20_000, 2024)
        assert (est.estimate.hex(), est.stderr.hex()) == (est_hex, err_hex), (n, p)


def test_rng_pinned_values_and_inputs_untouched():
    indices = np.arange(4, dtype=np.uint64)
    bases = sample_bases_v(7, indices)
    assert np.array_equal(indices, np.arange(4, dtype=np.uint64))
    assert [hex(int(v)) for v in bases] == [
        "0xb8b4c2977eabce45", "0xa65305fd338ec8fe", "0x8ca3cbb6ca63129b", "0x9aaf21d8296e1e3d",
    ]
    kept = bases.copy()
    slots = np.arange(4, dtype=np.uint64)
    ks = np.arange(4, dtype=np.uint64)
    # scalar slot and counter
    assert [v.hex() for v in u01_v(bases, 3, 5)] == [
        "0x1.f1775dc0375d6p-3", "0x1.466f6b88e86b0p-1", "0x1.dfdc63a5a8af0p-1", "0x1.8d6a75cb15a0ap-1",
    ]
    # a scalar stream key
    assert float(u01_v(bases[2], 0, 0)).hex() == "0x1.aff09cf6eb381p-2"
    # array slot and counter, elementwise and broadcast
    assert [v.hex() for v in u01_v(bases, slots, ks)] == [
        "0x1.38028f22c378cp-1", "0x1.8c38d7e80cfa5p-2", "0x1.8b48abcf4a3c5p-2", "0x1.190b5c6f8af53p-2",
    ]
    grid = u01_v(bases[:, None], 1, ks[None, :2])
    assert grid.shape == (4, 2)
    assert [v.hex() for v in grid.ravel()] == [
        "0x1.2ab709ebf4b9ep-1", "0x1.66ae4118b1601p-2", "0x1.fd4e6f7984d58p-1", "0x1.8c38d7e80cfa5p-2",
        "0x1.3712986379c96p-1", "0x1.68a8ea948a887p-2", "0x1.492fe312a6071p-2", "0x1.ff04e0f5739fep-3",
    ]
    assert np.array_equal(bases, kept)
    assert np.array_equal(slots, np.arange(4, dtype=np.uint64))
    assert np.array_equal(ks, np.arange(4, dtype=np.uint64))


def test_seed_sensitivity():
    a = sample_pball(3, 2.0, 1000, 1)
    b = sample_pball(3, 2.0, 1000, 2)
    assert not np.array_equal(a, b)


def test_vectorized_sampler_matches_scalar_reference():
    for n, p in REFERENCE_CELLS:
        idx = np.arange(4000, dtype=np.uint64)
        out = np.empty((4000, n))
        # uint64 arithmetic wraps modulo 2^64 by design; numpy scalars warn on it
        with np.errstate(over="ignore"):
            _fill_pball_reference(out, 77, idx, float(p))
        vec = sample_pball(n, p, 4000, 77)
        assert np.abs(out - vec).max() <= 1e-12, (n, p)


def test_samples_inside_body():
    for n, p in CELLS:
        pts = sample_pball(n, p, 4000, 5)
        if math.isinf(p):
            g = np.abs(pts).max(axis=1)
        else:
            g = (np.abs(pts) ** p).sum(axis=1) ** (1.0 / p)
        assert g.max() <= 1.0 + 1e-12, (n, p)
        assert g.min() > 0.0


def test_gauge_power_moment():
    # E[sum |x_j|^p] = n/(n+p)
    for n, p in ((2, 1.0), (3, 1.5), (4, 3.0), (5, 2.0)):
        pts = sample_pball(n, p, 60_000, 31)
        vals = (np.abs(pts) ** p).sum(axis=1)
        ref = n / (n + p)
        err = abs(vals.mean() - ref)
        tol = 4.0 * vals.std(ddof=1) / math.sqrt(len(vals))
        assert err <= tol, (n, p, err, tol)


def test_coordinate_symmetry():
    pts = sample_pball(3, 2.0, 60_000, 17)
    for j in range(3):
        m = pts[:, j].mean()
        tol = 4.0 * pts[:, j].std(ddof=1) / math.sqrt(len(pts))
        assert abs(m) <= tol, j


def test_estimates_match_closed_form():
    for n, p in ((2, 1.0), (2, 2.0), (3, 1.5)):
        est = estimate_phi(PBall(n, p), 50_000, 4242)
        ref = phi_pball(n, p).phi
        assert abs(est.estimate - ref) <= 4.0 * est.stderr, (n, p)
        assert est.samples == 50_000 and est.seed == 4242


def test_estimate_interval():
    est = estimate_phi(Interval(), 50_000, 8)
    assert abs(est.estimate - 1.0 / 9.0) <= 4.0 * est.stderr


def test_rejection_bodies_members():
    bodies = [
        Simplex(2),
        Product(3.0, PBall(2, 2.0), Interval()),
        parse_body('{"type": "revolution", "dim": 3, "profile": "cone"}'),
        make_linear_image(np.array([[1.0, 1.0], [0.0, 1.0]]), PBall(2, 2.0)),
    ]
    for body in bodies:
        for side in (PRIMAL, POLAR):
            pts = sample_body(body, side, 1500, 55)
            ok = membership_batch(body, side, pts)
            assert ok.all(), (body, side)


def test_revolution_estimates_match_exact_phi():
    grid = {"grid": [[-1.0, 0.0], [-0.5, 0.75], [0.0, 1.0], [0.5, 0.75], [1.0, 0.0]]}
    for n, profile in ((5, "cone"), (4, "pball:3"), (3, grid)):
        body = parse_body({"type": "revolution", "dim": n, "profile": profile})
        est = estimate_phi(body, 20_000, 2024)
        ref = phi_revolution(body.profile, n).phi
        assert abs(est.estimate - ref) <= 4.0 * est.stderr, (profile, est, ref)


def test_simplex_centroid_is_origin():
    # the regular simplex has its centroid at 0, so a uniform sample's mean is
    # near 0 (each coordinate has variance below 1)
    count = 30_000
    pts = sample_body(Simplex(2), PRIMAL, count, 909)
    assert pts.shape == (count, 2)
    tol = 4.0 / math.sqrt(count)
    assert np.abs(pts.mean(axis=0)).max() <= tol


README_GRID = {"grid": [[-1.0, 0.0], [-0.5, 0.75], [0.0, 1.0], [0.5, 0.75], [1.0, 0.0]]}
# a flat top (a segment with equal end radii) and flat ends, whose polar has
# the vertices (+-1, 0)
FLAT_TOP_GRID = {"grid": [[-1.0, 0.5], [-0.5, 1.0], [0.5, 1.0], [1.0, 0.5]]}

# one body per exact rule beyond the p-ball; the polar side of each is a
# second rule or a second instance (the simplex polar is a linear image, the
# cone's polar the cylinder, x_1 becomes x_inf)
RULE_BODIES = [
    Simplex(3),
    *(Product(p, Simplex(2), PBall(2, 3.0)) for p in (1.0, 1.5, math.inf)),
    parse_body({"type": "revolution", "dim": 4, "profile": "cone"}),
    parse_body({"type": "revolution", "dim": 3, "profile": "pball:3"}),
    parse_body({"type": "revolution", "dim": 3, "profile": README_GRID}),
    parse_body({"type": "revolution", "dim": 12, "profile": README_GRID}),
    parse_body({"type": "revolution", "dim": 4, "profile": FLAT_TOP_GRID}),
    make_linear_image(np.diag(np.logspace(-6.0, 6.0, 4)), PBall(4, 2.0)),
]


def test_every_rule_is_uniform_in_its_body():
    # g^n ~ U(0, 1): its mean is 1/2 with standard error 1/sqrt(12 M)
    count = 20_000
    for body in RULE_BODIES:
        for side in (PRIMAL, POLAR):
            pts = sample_body(body, side, count, 4711)
            assert membership_batch(body, side, pts).all(), (body, side)
            g = gauge_batch(resolve_side(body, side), pts) ** body.dim
            assert abs(g.mean() - 0.5) <= 4.0 / math.sqrt(12.0 * count), (body, side)


def test_every_rule_is_deterministic_per_index():
    perm = np.random.default_rng(99).permutation(1500)
    idx = np.arange(1500, dtype=np.uint64)
    for body in RULE_BODIES:
        for side in (PRIMAL, POLAR):
            resolved = resolve_side(body, side)
            ref = _dispatch_sample(resolved, 31, idx)
            assert np.array_equal(ref, _dispatch_sample(resolved, 31, idx)), (body, side)
            assert np.array_equal(_dispatch_sample(resolved, 31, idx[perm]), ref[perm]), (body, side)
            ref = _interior(resolved, 31, idx)
            small = sample_body(body, side, 200, 31)
            assert np.array_equal(small, ref[:200]), (body, side)
            off = sample_body(body, side, 100, 31, index_offset=700)
            assert np.array_equal(off, ref[700:800]), (body, side)


def test_every_rule_draws_on_the_boundary():
    # g(u) = 1 within 1e-12 for every rule on both sides, the p-ball from
    # p = 1 to a p where the Gamma sum underflows, the interval and a
    # cond-1e12 diagonal ellipse
    bodies = [*RULE_BODIES, Interval(), make_linear_image(np.diag([1e6, 1e-6]), PBall(2, 2.0)),
              *(PBall(3, p) for p in (1.0, 1.5, 1e6, math.inf))]
    bases = sample_bases_v(271, np.arange(5000, dtype=np.uint64))
    for body in bodies:
        for side in (PRIMAL, POLAR):
            resolved = resolve_side(body, side)
            u = sampler._draw(resolved, bases, 0)
            assert u.shape == (len(bases), body.dim), (body, side)
            on = np.abs(gauge_batch(resolved, u) - 1.0).max()
            assert on <= 1e-12, (body, side, on)


def test_no_sampler_rejects(monkeypatch):
    # every rule is exact: no draw tests membership, and a grid revolution
    # draw runs no rejection rounds either
    def forbidden(*args):
        raise AssertionError("a sampler called a rejection helper")

    monkeypatch.setattr(sampler, "membership_batch", forbidden)
    for body in RULE_BODIES:
        with monkeypatch.context() as grid:
            if isinstance(body, Revolution) and body.profile.kind == "grid":
                grid.setattr(sampler, "_rounds", forbidden)
            for side in (PRIMAL, POLAR):
                assert sample_body(body, side, 500, 8).shape == (500, body.dim), (body, side)


def test_grid_axis_law_matches_exact_moments():
    # the gauge test cannot see a wrong law of t along the axis; the exact
    # moments can: E t^2 = m2 / m0 and E |y|^2 = (n - 1) m+ / ((n + 1) m0)
    count = 20_000
    for grid in (README_GRID, FLAT_TOP_GRID):
        for n in (3, 50):
            body = parse_body({"type": "revolution", "dim": n, "profile": grid})
            for side in (PRIMAL, POLAR):
                m0, m2, mp = profile_integrals(resolve_side(body, side).profile, n)
                pts = sample_body(body, side, count, 1618)
                t2 = pts[:, 0] ** 2
                y2 = np.einsum("ij,ij->i", pts[:, 1:], pts[:, 1:])
                for vals, ref in ((t2, m2 / m0), (y2, (n - 1) * mp / ((n + 1) * m0))):
                    tol = 4.0 * vals.std(ddof=1) / math.sqrt(count)
                    assert abs(vals.mean() - ref) <= tol, (grid, n, side, vals.mean(), ref)


def test_cone_measure_moments_match_exact_values(cone_moment, boundary_var):
    # g(u) = 1 cannot see a wrong law on the boundary (a wrong edge or end-cap
    # mass, a wrong Gamma share); the exact moments of the cone measure can
    count = 100_000
    idx = np.arange(count, dtype=np.uint64)

    def close(vals, ref, what):
        tol = 4.0 * vals.std(ddof=1) / math.sqrt(count)
        assert abs(vals.mean() - ref) <= tol, (what, vals.mean(), ref)

    # p-balls: (|u_j|^p) is Dirichlet(1/p, ..., 1/p), so E u u^T = E u_1^2 I;
    # the cube's u is +-1 in one coordinate and uniform in the others.  A x_p
    # tree of p-balls and intervals of one p is a p-ball too, drawn as one
    # flattened node
    bodies = [PBall(n, p) for n, p in ((2, 1.0), (3, 1.5), (5, 3.0), (4, 1e6), (6, math.inf))]
    bodies += [Product(3.0, PBall(2, 3.0), Product(3.0, Interval(), PBall(2, 3.0))),
               Product(math.inf, Interval(), PBall(2, math.inf))]
    for body in bodies:
        n, p = body.dim, body.p
        u = _dispatch_sample(body, 12, idx)
        second = (n + 2.0) / (3.0 * n) if math.isinf(p) else cone_moment(n, p, (2,))
        for i in range(n):
            for j in range(i, n):
                close(u[:, i] * u[:, j], second if i == j else 0.0, (n, p, i, j))
        dev = np.einsum("ij,ij->i", u, u)
        dev -= dev.mean()
        s2 = np.mean(dev**2)
        sd = math.sqrt((np.mean(dev**4) - s2**2) / count)
        assert abs(s2 - boundary_var(n, p)) <= 4.0 * sd, (n, p, s2, boundary_var(n, p))
    # the other rules against exact E u u^T.  Simplex: I/n^2 (its n + 1 unit
    # vertices are a tight frame).  A x_p node of A and B: its blocks are
    # E W^{2/p} E u_A u_A^T and E (1-W)^{2/p} E u_B u_B^T with W ~ Beta(n_A/p,
    # n_B/p), and its off-diagonal block is 0; the named profile pball:P is
    # [-1, 1] x_P B_2^{n-1}, whose sphere part has E u u^T = I/(n-1).  A
    # linear image T K: T E u u^T T^T
    def share(na, nb, p):  # E W^{2/p} = B((n_A+2)/p, n_B/p) / B(n_A/p, n_B/p)
        def lbeta(a, b):
            return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        return math.exp(lbeta((na + 2) / p, nb / p) - lbeta(na / p, nb / p))

    tri = np.array([[1.0, 0.5, -2.0], [0.0, 2.0, 1.0], [0.0, 0.0, 0.5]])
    exact = [(Simplex(n), np.eye(n) / n**2) for n in (2, 3, 5)]
    exact += [
        (Product(1.5, PBall(2, 3.0), Simplex(2)),
         np.diag([share(2, 2, 1.5) * cone_moment(2, 3.0, (2,))] * 2 + [share(2, 2, 1.5) / 4] * 2)),
        (parse_body({"type": "revolution", "dim": 4, "profile": "pball:3"}),
         np.diag([share(1, 3, 3.0)] + [share(3, 1, 3.0) / 3] * 3)),
        (make_linear_image(tri, Simplex(3)), tri @ tri.T / 9),
    ]
    for body, ref in exact:
        u = _dispatch_sample(body, 12, idx)
        for i in range(body.dim):
            for j in range(i, body.dim):
                close(u[:, i] * u[:, j], ref[i, j], (body, i, j))
    # grids: n/(n+2) E u_t^2 = m2 / m0 and n/(n+2) E |u_y|^2 = (n - 1) m+ / ((n + 1) m0)
    for grid in (README_GRID, FLAT_TOP_GRID):
        for n in (2, 3, 10):
            body = parse_body({"type": "revolution", "dim": n, "profile": grid})
            c = n / (n + 2.0)
            for side in (PRIMAL, POLAR):
                resolved = resolve_side(body, side)
                m0, m2, mp = profile_integrals(resolved.profile, n)
                u = _dispatch_sample(resolved, 1618, idx)
                close(c * u[:, 0] ** 2, m2 / m0, (grid, n, side, "t"))
                y2 = np.einsum("ij,ij->i", u[:, 1:], u[:, 1:])
                close(c * y2, (n - 1) * mp / ((n + 1) * m0), (grid, n, side, "y"))


def test_grid_rule_draws_a_fine_grid_fast():
    # a 4,001-knot grid near the disc at n = 50: 1e5 rows on each side in
    # under 1 s, every one on the boundary, with no gauge evaluated
    half = np.linspace(0.0, 1.0, 2001)
    t = np.concatenate([-half[:0:-1], half])
    knots = np.stack([t, np.sqrt(1.0 - t * t)], axis=1).tolist()
    body = parse_body({"type": "revolution", "dim": 50, "profile": {"grid": knots}})
    idx = np.arange(100_000, dtype=np.uint64)
    for side in (PRIMAL, POLAR):
        resolved = resolve_side(body, side)
        t0 = time.perf_counter()
        u = _dispatch_sample(resolved, 5, idx)
        dt = time.perf_counter() - t0
        on = np.abs(gauge_batch(resolved, u) - 1.0).max()
        print(f"{side}: {dt:.3f} s for 1e5 rows, |g(u) - 1| <= {on:.1e}")
        assert dt < 1.0, (side, dt)
        assert on <= 1e-12, (side, on)

def test_exact_samplers_reach_exact_phi_in_high_dimension():
    # simplex, cone, the README grid and a cond-1e12 ellipse at n = 10 and 50,
    # 2e4 samples each
    for n in (10, 50):
        ball = n / (n + 2.0) ** 2
        cone = parse_body({"type": "revolution", "dim": n, "profile": "cone"})
        grid = parse_body({"type": "revolution", "dim": n, "profile": README_GRID})
        cells = (
            ("simplex", Simplex(n), ball),
            ("cone", cone, phi_revolution(cone.profile, n).phi),
            ("grid", grid, phi_revolution(grid.profile, n).phi),
            ("ellipse", make_linear_image(np.diag(np.logspace(-6.0, 6.0, n)), PBall(n, 2.0)), ball),
        )
        for name, body, ref in cells:
            t0 = time.perf_counter()
            est = estimate_phi(body, 20_000, 2025)
            dt = time.perf_counter() - t0
            sigmas = abs(est.estimate - ref) / est.stderr
            print(f"{name}-{n}: {sigmas:.2f} stderr from exact phi, {dt:.3f} s")
            assert sigmas <= 4.0, (name, n, est, ref)


def test_grid_revolution_reaches_exact_phi_at_dimension_200():
    # 2e4 points in the README grid body and 2e4 in its polar at n = 200
    body = parse_body({"type": "revolution", "dim": 200, "profile": README_GRID})
    ref = phi_revolution(body.profile, 200).phi
    t0 = time.perf_counter()
    est = estimate_phi(body, 20_000, 2026)
    sigmas = abs(est.estimate - ref) / est.stderr
    print(f"grid-200: {sigmas:.2f} stderr from exact phi, {time.perf_counter() - t0:.3f} s")
    assert sigmas <= 4.0, (est, ref)


def test_stderr_scaling():
    # the 64-group stderr scatters by about 1 / sqrt(2 * 63) = 9 % from one
    # seed to the next, so the ratio is taken between root mean squares over
    # eight seeds, whose scatter is about 4.5 %
    seeds = range(3, 11)

    def ratio(body):
        small = [estimate_phi(body, 20_000, s).stderr ** 2 for s in seeds]
        large = [estimate_phi(body, 80_000, s).stderr ** 2 for s in seeds]
        return math.sqrt(sum(small) / sum(large))

    assert 1.7 <= ratio(PBall(2, 1.5)) <= 2.3  # sqrt(4) = 2 up to sampling noise
    # on the disc |u| = 1, so tr S_x = c exactly and the first-order terms
    # vanish: the error and the stderr fall as 1/M.  Each w_g is then a
    # product of two fluctuations, and six sets of eight seeds gave ratios
    # of 3.45 to 4.06
    assert 3.2 <= ratio(PBall(2, 2.0)) <= 4.8  # 4 up to sampling noise


def _group_recipe(u, v):
    """(estimate, stderr) of the boundary-point estimator from whole-array draws.

    u, v are boundary points x / g(x) of the body and its polar, c = n/(n+2);
    G = min(64, M) equal index groups; S_x = c (1/M) sum u u^T and likewise
    S_y, w_g = tr(Sbar_x^g S_y) + tr(S_x Sbar_y^g) with group means Sbar^g,
    and stderr^2 = sum_g (w_g - wbar)^2 / (G (G - 1)).
    """
    m, n = u.shape
    c = n / (n + 2.0)
    groups = min(64, m)
    edges = [g * m // groups for g in range(groups + 1)]
    spans = list(zip(edges[:-1], edges[1:]))
    sx = np.stack([np.dot(u[a:b].T, u[a:b]) for a, b in spans])
    sy = np.stack([np.dot(v[a:b].T, v[a:b]) for a, b in spans])
    mx = c * (sx.sum(axis=0) / m)
    my = c * (sy.sum(axis=0) / m)
    est = float(np.einsum("ij,ji->", mx, my))
    w = (np.einsum("gij,ji->g", sx, my) + np.einsum("ij,gji->g", mx, sy)) * c / np.diff(edges)
    return est, float(np.sqrt(np.sum((w - w.mean()) ** 2) / (groups * (groups - 1))))


def test_stderr_definition():
    est = estimate_phi(PBall(2, 1.5), 5000, 21)
    assert isinstance(est, MCEstimate)
    assert est.stderr > 0.0
    # manual recomputation: pair i = sample indices (2i, 2i+1)
    idx = np.arange(5000, dtype=np.uint64)
    u = _dispatch_sample(PBall(2, 1.5), 21, 2 * idx)
    v = _dispatch_sample(PBall(2, 3.0), 21, 2 * idx + 1)
    assert (est.estimate, est.stderr) == _group_recipe(u, v)
    # the boundary points are the rule's draws, used as they are
    assert np.array_equal(u, sampler._draw(PBall(2, 1.5), sample_bases_v(21, 2 * idx), 0))
    # tr(S_x S_y) is c^2 times the mean of <u_i, v_j>^2 over all pairs (i, j)
    few = estimate_phi(PBall(2, 1.5), 500, 21)
    ref = 0.25 * float(np.mean((u[:500] @ v[:500].T) ** 2))
    assert few.estimate == pytest.approx(ref, rel=1e-12)


def test_blocked_estimate_matches_whole_array(monkeypatch):
    # the test_stderr_definition recipe over the whole index range, on a
    # count whose blocks do not start at multiples of _BLOCK
    samples = 2 * _BLOCK + 123
    idx = np.arange(samples, dtype=np.uint64)
    bodies = [
        PBall(3, 1.5),
        parse_body({"type": "product", "p": 2, "left": {"type": "pball", "dim": 2, "p": 1},
                    "right": {"type": "simplex", "dim": 2}}),
        parse_body({"type": "revolution", "dim": 3, "profile": README_GRID}),
    ]
    for body in bodies:
        primal = resolve_side(body, PRIMAL)
        u = _dispatch_sample(primal, 9, 2 * idx)
        v = _dispatch_sample(polar_body(primal), 9, 2 * idx + 1)
        est = estimate_phi(body, samples, 9)
        assert (est.estimate, est.stderr) == _group_recipe(u, v), body
    # more blocks than groups: a group's sums then add up over several blocks
    monkeypatch.setattr(sampler, "_BLOCK", 50)
    idx = np.arange(5000, dtype=np.uint64)
    u = _dispatch_sample(PBall(3, 1.5), 9, 2 * idx)
    v = _dispatch_sample(PBall(3, 3.0), 9, 2 * idx + 1)
    est = estimate_phi(PBall(3, 1.5), 5000, 9)
    ref = _group_recipe(u, v)
    assert est.estimate == pytest.approx(ref[0], rel=1e-12)
    assert est.stderr == pytest.approx(ref[1], rel=1e-10)


def test_estimate_memory_is_bounded():
    # nothing is kept per sample, only each group's n x n sums, so the peak
    # must not grow with the sample count; the bound still allows 8 bytes
    # per extra sample
    peaks = []
    for blocks in (2, 8):
        tracemalloc.start()
        estimate_phi(PBall(3, 1.5), blocks * _BLOCK, 4)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 8 * 6 * _BLOCK + 64 * 1024, peaks


def test_stderr_calibration(pball_variances, body_v_rb):
    # over 64 fixed seeds per cell at M = 8192 (128 samples per group):
    #  * the mean of stderr^2 * M lies within 4 of its standard deviations
    #    (the spread over the seeds / 8) of the exact V_rb;
    #  * the share of |z| <= 2 lies within 4 binomial standard deviations of
    #    0.95, the probability of |t| <= 2 at the 63 degrees of freedom.
    # stderr^2 * M carries an O(1/M) term beyond V_rb: at M = 2048 it read
    # about 7 % high at (5, 1.5), at 8192 about 1 %.  At p = 2, V_rb = 0
    # (see test_exact_variance_ratios), so (10, 1.25) stands in for it.
    # Beyond p-balls: the named profile pball:3 at n = 4 (Beta moments) and
    # the simplex at n = 3 (Dirichlet moments), whose V_rb come from conftest
    samples, seeds = 8192, range(64)
    named = parse_body({"type": "revolution", "dim": 4, "profile": "pball:3"})
    cells = [(PBall(n, p), phi_pball(n, p).phi, pball_variances(n, p)[2])
             for n, p in ((5, 1.5), (10, 1.25))]
    cells += [(named, phi_revolution(named.profile, 4).phi, body_v_rb["pball:3-4"]),
              (Simplex(3), 3.0 / 25.0, body_v_rb["simplex-3"])]
    z = []
    for body, ref, v_rb in cells:
        ests = [estimate_phi(body, samples, s) for s in seeds]
        v = np.array([e.stderr**2 * samples for e in ests])
        sd_mean = v.std(ddof=1) / math.sqrt(len(v))
        assert abs(v.mean() - v_rb) <= 4.0 * sd_mean, (body, v.mean(), v_rb)
        z += [(e.estimate - ref) / e.stderr for e in ests]
    share = np.mean(np.abs(z) <= 2.0)
    assert abs(share - 0.95) <= 4.0 * math.sqrt(0.95 * 0.05 / len(z)), share


def test_exact_variance_ratios(pball_variances, boundary_var):
    # V_pair / V_all, the per-sample variance of <x, y>^2 over the all-pairs one
    for (n, p), ratio in (((5, 1.5), 8.0), ((10, 1.25), 17.2), ((10, 2.0), 28.8)):
        v_pair, v_all, _ = pball_variances(n, p)
        assert round(v_pair / v_all, 1) == ratio, (n, p, v_pair / v_all)
    # V_all / V_rb, the all-pairs estimator on points over the one on
    # boundary points; on the ball |u| = 1, so V_rb = 0
    for (n, p), ratio in (((2, 1.0), 8.0), ((3, 1.5), 25.4), ((5, 3.0), 12.4),
                          ((10, 1.25), 2.51), ((8, math.inf), 1.74)):
        _, v_all, v_rb = pball_variances(n, p)
        assert float(f"{v_all / v_rb:.3g}") == ratio, (n, p, v_all / v_rb)
    for n in (2, 6, 10):
        assert pball_variances(n, 2.0)[2] == pytest.approx(0.0, abs=1e-15), n
    # the Dirichlet law tends to the cube's (n - 1) 4/45 as p grows
    assert boundary_var(8, 1e4) == pytest.approx(boundary_var(8, math.inf), rel=1e-3)
    # duality: (5, 3) has the same three variances as (5, 1.5)
    assert pball_variances(5, 3.0) == pytest.approx(pball_variances(5, 1.5), rel=1e-12)
    # Var |u|^2 against the sample variance of |u|^2 over 1e5 boundary
    # points, within 4 of its standard deviations sqrt((mu_4 - s^4) / N)
    idx = np.arange(100_000, dtype=np.uint64)
    for n, p in ((3, 1.5), (8, math.inf)):
        u = _dispatch_sample(PBall(n, p), 5, idx)
        dev = np.einsum("ij,ij->i", u, u)
        dev -= dev.mean()
        s2 = np.mean(dev**2)
        ref = boundary_var(n, p)
        sd = math.sqrt((np.mean(dev**4) - s2**2) / len(dev))
        assert abs(s2 - ref) <= 4.0 * sd, (n, p, s2, ref)
    # V_pair against the sample variance of <x, y>^2 over 1e5 pairs
    v_pair = pball_variances(3, 1.5)[0]
    x = _interior(PBall(3, 1.5), 5, 2 * idx)
    y = _interior(PBall(3, 3.0), 5, 2 * idx + 1)
    dev = np.einsum("ij,ij->i", x, y) ** 2
    dev -= dev.mean()
    s2 = np.mean(dev**2)
    assert abs(s2 - v_pair) <= 4.0 * math.sqrt((np.mean(dev**4) - s2**2) / len(dev)), (s2, v_pair)


def test_estimate_is_linear_invariant_to_rounding():
    # the maps at the top of the body are dropped, nested ones too, so the
    # estimate is the inner body's bit for bit (no rounding is left)
    base = estimate_phi(PBall(2, 1.5), 20_000, 33)
    for matrix in ([[30.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [0.0, 1.0]], [[1e6, 0.0], [0.0, 1e-6]]):
        body = make_linear_image(np.array(matrix), PBall(2, 1.5))
        assert estimate_phi(body, 20_000, 33) == base, matrix
        twice = make_linear_image(np.array(matrix).T, body)
        assert estimate_phi(twice, 20_000, 33) == base, matrix
    # the simplex's polar is itself a linear image; the primal's maps still go
    simplex = make_linear_image(np.diag([2.0, 1.0, 0.5]), Simplex(3))
    assert estimate_phi(simplex, 5000, 33) == estimate_phi(Simplex(3), 5000, 33)


def test_ill_conditioned_ellipses_estimate_one_eighth():
    # phi is linear invariant, so every ellipse has phi(B_2^2) = 1/8.  Mapping
    # the draws by T and T^{-T} made tr(S_x S_y) cancel: at condition number
    # 1e8 the rotated ellipse read 0.2031 +- 0.0106 (7.5 stderr off) and at
    # 1e12 it read -1048576 +- 1031967.  With the maps dropped, each estimate
    # is the disc's, bit for bit
    theta = 0.3
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    disc = estimate_phi(PBall(2, 2.0), 20_000, 1)
    assert abs(disc.estimate - 0.125) <= 4.0 * disc.stderr and disc.stderr < 1e-3, disc
    for matrix in (np.diag([1000.0, 0.001]), rot @ np.diag([1e4, 1e-4]) @ rot.T,
                   rot @ np.diag([1e6, 1e-6]) @ rot.T):
        est = estimate_phi(make_linear_image(matrix, PBall(2, 2.0)), 20_000, 1)
        assert est == disc, (matrix, est)


def test_maps_inside_products_are_dropped():
    # (T1 A) x_p (T2 B) = diag(T1, T2) (A x_p B), so a map inside a factor
    # drops like one at the top.  With only the top maps dropped, k = 1e4
    # read 0.1146 +- 0.0062 (a stderr 1,000 times the plain product's) and
    # k = 1e6 read 1048576 +- 575658, against phi = 0.12
    theta = 0.3
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    plain = estimate_phi(Product(2.0, PBall(2, 2.0), Interval()), 20_000, 1)
    for k in (1e4, 1e6):
        ellipse = make_linear_image(rot @ np.diag([k, 1.0 / k]) @ rot.T, PBall(2, 2.0))
        est = estimate_phi(Product(2.0, ellipse, Interval()), 20_000, 1)
        assert abs(est.estimate - 0.12) <= 4.0 * est.stderr, (k, est)
        assert est == plain, (k, est)
    # maps on both factors, a level down, and at the top
    inner = Product(1.5, make_linear_image(np.array([[3.0]]), Interval()), PBall(2, 3.0))
    nested = make_linear_image(
        np.diag([2.0, 1.0, 1.0, 0.5]),
        Product(2.0, make_linear_image(np.array([[1e3]]), Interval()), inner),
    )
    assert estimate_phi(nested, 5000, 7) == estimate_phi(
        Product(2.0, Interval(), Product(1.5, Interval(), PBall(2, 3.0))), 5000, 7)


def test_input_validation():
    with pytest.raises(DomainError):
        estimate_phi(PBall(2, 2.0), 1, 5)
    with pytest.raises(DomainError):
        sample_body(PBall(2, 2.0), PRIMAL, 0, 5)
    with pytest.raises(DomainError):
        parse_seed("0xZZ")
    with pytest.raises(DomainError):
        parse_seed(str(2**64))
    assert parse_seed("0x10") == 16 == parse_seed("16")


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=1, max_value=5),
    st.sampled_from([1.0, 1.5, 2.0, 4.0, math.inf]),
)
def test_sampling_property(seed, n, p):
    pts = sample_pball(n, p, 64, seed)
    assert np.array_equal(pts, sample_pball(n, p, 64, seed))
    assert membership_batch(PBall(n, p), PRIMAL, pts).all()
