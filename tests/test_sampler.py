"""Monte Carlo sampler tests.

Distributional oracles (independent closed forms):
  * for X uniform in a body K in R^n, the gauge satisfies P(g <= t) = t^n,
    so g^n is uniform on (0, 1) and, for the unit p-ball with finite p,
    E[sum_j |X_j|^p] = E[g^p] = n/(n+p);
  * coordinates are symmetric: every coordinate mean is 0;
  * estimates for p-balls and revolution bodies must bracket the exact phi
    (closed form, or the exact revolution moments) within 4 stderr;
  * on p-balls the Dirichlet moment formula gives the exact per-sample
    variance V_all of the all-pairs estimator (conftest), so stderr^2 * M
    is checked against it over fixed seeds, with the coverage of +/- 2
    stderr;
  * phi is linear invariant, and so is the estimator up to rounding: the
    draws of T K are T times those of K, and S_{TK} = T S_K T^T,
    S_{(TK)°} = T^{-T} S_{K°} T^{-1}.

Structural contracts: counter-based determinism (prefix invariance, exact
repeatability, rows that follow their sample indices under permutation and
gaps, for every sampling rule; Monte Carlo and RNG bits pinned to recorded
values), membership of every sample, and the vectorized p-ball kernel
agreeing to roundoff with a one-sample-at-a-time reference.
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
    m, n = out.shape
    pinf = p == np.inf
    a = 1.0 / p
    b = 1.0 + a / math.e
    mags = np.empty(n)
    for i in range(m):
        base = _sample_base(np.uint64(seed), indices[i])
        if pinf:
            for j in range(n):
                out[i, j] = 2.0 * _u01(base, np.uint64(j), np.uint64(0)) - 1.0
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
        s += -np.log(_u01(base, np.uint64(n + 1), np.uint64(0)))
        denom = s**a
        for j in range(n):
            u = _u01(base, np.uint64(n), np.uint64(j))
            sign = -1.0 if u < 0.5 else 1.0
            out[i, j] = sign * mags[j] / denom
    return out


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
# recorded with the all-pairs estimator over 64 index groups: a sampler
# rewrite that keeps the counter layout must reproduce them bit for bit
PINNED_MC = {
    (5, 3.0): ("0x1.9dc8b52eb93c3p-4", "0x1.5c20f7c94ad83p-12"),
    (10, 1.25): ("0x1.0c16134557a78p-4", "0x1.35351d5a9c312p-13"),
    (3, 1.5): ("0x1.e3db247737d8ep-4", "0x1.1e4af07a3ff89p-11"),
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
        vec = _dispatch_sample(PBall(n, p), 77, idx)
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
            small = sample_body(body, side, 200, 31)
            assert np.array_equal(small, ref[:200]), (body, side)
            off = sample_body(body, side, 100, 31, index_offset=700)
            assert np.array_equal(off, ref[700:800]), (body, side)


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
    small = [estimate_phi(PBall(2, 2.0), 20_000, s).stderr ** 2 for s in seeds]
    large = [estimate_phi(PBall(2, 2.0), 80_000, s).stderr ** 2 for s in seeds]
    ratio = math.sqrt(sum(small) / sum(large))
    assert 1.7 <= ratio <= 2.3  # sqrt(4) = 2 up to sampling noise


def _group_recipe(x, y):
    """(estimate, stderr) of the all-pairs estimator from whole-array draws.

    G = min(64, M) equal index groups; S_x, S_y are the sample second-moment
    matrices, w_g = tr(Sbar_x^g S_y) + tr(S_x Sbar_y^g) with group means
    Sbar^g, and stderr^2 = sum_g (w_g - wbar)^2 / (G (G - 1)).
    """
    m = len(x)
    groups = min(64, m)
    edges = [g * m // groups for g in range(groups + 1)]
    spans = list(zip(edges[:-1], edges[1:]))
    sx = np.stack([np.dot(x[a:b].T, x[a:b]) for a, b in spans])
    sy = np.stack([np.dot(y[a:b].T, y[a:b]) for a, b in spans])
    mx = sx.sum(axis=0) / m
    my = sy.sum(axis=0) / m
    est = float(np.einsum("ij,ji->", mx, my))
    w = (np.einsum("gij,ji->g", sx, my) + np.einsum("ij,gji->g", mx, sy)) / np.diff(edges)
    return est, float(np.sqrt(np.sum((w - w.mean()) ** 2) / (groups * (groups - 1))))


def test_stderr_definition():
    est = estimate_phi(PBall(2, 2.0), 5000, 21)
    assert isinstance(est, MCEstimate)
    assert est.stderr > 0.0
    # manual recomputation: pair i = sample indices (2i, 2i+1)
    idx = np.arange(5000, dtype=np.uint64)
    x = _dispatch_sample(PBall(2, 2.0), 21, 2 * idx)
    y = _dispatch_sample(PBall(2, 2.0), 21, 2 * idx + 1)
    assert (est.estimate, est.stderr) == _group_recipe(x, y)
    # tr(S_x S_y) is the mean of <x_i, y_j>^2 over all pairs (i, j)
    few = estimate_phi(PBall(2, 2.0), 500, 21)
    assert few.estimate == pytest.approx(float(np.mean((x[:500] @ y[:500].T) ** 2)), rel=1e-12)


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
        x = _dispatch_sample(primal, 9, 2 * idx)
        y = _dispatch_sample(polar_body(primal), 9, 2 * idx + 1)
        est = estimate_phi(body, samples, 9)
        assert (est.estimate, est.stderr) == _group_recipe(x, y), body
    # more blocks than groups: a group's sums then add up over several blocks
    monkeypatch.setattr(sampler, "_BLOCK", 50)
    idx = np.arange(5000, dtype=np.uint64)
    x = _dispatch_sample(PBall(3, 1.5), 9, 2 * idx)
    y = _dispatch_sample(PBall(3, 3.0), 9, 2 * idx + 1)
    est = estimate_phi(PBall(3, 1.5), 5000, 9)
    ref = _group_recipe(x, y)
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


def test_stderr_calibration(pball_variances):
    # over 64 fixed seeds per cell at M = 2048 (32 samples per group):
    #  * the mean of stderr^2 * M lies within 4 of its standard deviations
    #    (the spread over the seeds / 8) of the exact V_all;
    #  * the share of |z| <= 2 lies within 4 binomial standard deviations of
    #    0.95, the probability of |t| <= 2 at the 63 degrees of freedom
    samples, seeds = 2048, range(64)
    z = []
    for n, p in ((5, 1.5), (10, 2.0)):
        ref = phi_pball(n, p).phi
        v_all = pball_variances(n, p)[1]
        ests = [estimate_phi(PBall(n, p), samples, s) for s in seeds]
        v = np.array([e.stderr**2 * samples for e in ests])
        sd_mean = v.std(ddof=1) / math.sqrt(len(v))
        assert abs(v.mean() - v_all) <= 4.0 * sd_mean, (n, p, v.mean(), v_all)
        z += [(e.estimate - ref) / e.stderr for e in ests]
    share = np.mean(np.abs(z) <= 2.0)
    assert abs(share - 0.95) <= 4.0 * math.sqrt(0.95 * 0.05 / len(z)), share


def test_exact_variance_ratios(pball_variances):
    # V_pair / V_all, the per-sample variance of <x, y>^2 over the all-pairs one
    for (n, p), ratio in (((5, 1.5), 8.0), ((10, 1.25), 17.2), ((10, 2.0), 28.8)):
        v_pair, v_all = pball_variances(n, p)
        assert round(v_pair / v_all, 1) == ratio, (n, p, v_pair / v_all)
    # duality: (5, 3) has the same two variances as (5, 1.5)
    assert pball_variances(5, 3.0) == pytest.approx(pball_variances(5, 1.5), rel=1e-12)
    # V_pair against the sample variance of <x, y>^2 over 1e5 pairs, within 4
    # of its standard deviations sqrt((mu_4 - s^4) / N)
    v_pair, _ = pball_variances(3, 1.5)
    idx = np.arange(100_000, dtype=np.uint64)
    x = _dispatch_sample(PBall(3, 1.5), 5, 2 * idx)
    y = _dispatch_sample(PBall(3, 3.0), 5, 2 * idx + 1)
    dev = np.einsum("ij,ij->i", x, y) ** 2
    dev -= dev.mean()
    s2 = np.mean(dev**2)
    assert abs(s2 - v_pair) <= 4.0 * math.sqrt((np.mean(dev**4) - s2**2) / len(dev)), (s2, v_pair)


def test_estimate_is_linear_invariant_to_rounding():
    base = estimate_phi(PBall(2, 1.5), 20_000, 33)
    for matrix in ([[30.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [0.0, 1.0]], [[1e6, 0.0], [0.0, 1e-6]]):
        est = estimate_phi(make_linear_image(np.array(matrix), PBall(2, 1.5)), 20_000, 33)
        assert est.estimate == pytest.approx(base.estimate, rel=1e-12, abs=0.0), matrix
        assert est.stderr == pytest.approx(base.stderr, rel=1e-10, abs=0.0), matrix


def test_ill_conditioned_ellipses_estimate_one_eighth():
    # phi is linear invariant, so every ellipse has phi(B_2^2) = 1/8
    theta = 0.3
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    for matrix in (np.diag([1000.0, 0.001]), rot @ np.diag([1e6, 1e-6]) @ rot.T):
        body = make_linear_image(matrix, PBall(2, 2.0))
        est = estimate_phi(body, 20_000, 1)
        assert abs(est.estimate - 0.125) <= 4.0 * est.stderr, (matrix, est)


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
