"""Monte Carlo estimation of the polar pairing functional.

phi(K) = tr(M_K M_K°) with M_K = E[x x^T] for x uniform in K.  Write x =
r u with r = g_K(x) its gauge and u = x / r on the boundary: r and u are
independent and r^n ~ U(0, 1) in every body, so M_K = n/(n+2) E[u u^T]
exactly.  The estimator draws M independent points uniform in the body and
M in its polar, keeps their boundary points u_i and v_i, and returns
tr(S_x S_y) with S_x = n/(n+2) (1/M) sum u u^T and likewise S_y: c^2 times
the mean of <u_i, v_j>^2 over all M^2 pairs, c = n/(n+2), unbiased because
S_x and S_y are independent, and with no noise from the radii (on the
Euclidean ball |u| = 1, so the error is second order and falls as 1/M).
phi(T K) = phi(K), and the estimator drops every linear map of the body,
those inside x_p factors too ((T1 A) x_p (T2 B) = diag(T1, T2) (A x_p B)),
so T K and K give the same estimate bit for bit.  The standard
error comes from the two Hoeffding projections (Hoeffding 1948), evaluated
on G = 64 equal groups of sample indices, so the estimate +/- a few stderr
is an honest confidence interval.

Streams are counter-based (see rng): pair i reads sample index 2i for x and
2i + 1 for y, and every uniform is a pure function of (seed, sample index,
slot, counter).  Results are therefore bit-identical however the work is
batched.  The estimator draws its pairs in blocks of about 32,768 indices
and keeps only each group's sums of u u^T and v v^T: memory is
O(block * n + G * n^2), with no term in the sample count.

Every body type has an exact rule, an array kernel over the sample indices:

* p-ball B_p^n: |x_j|^p is Gamma(1/p) via the Ahrens-Dieter GS rejection
  sampler (two uniforms per round, valid for shape in (0,1)); the magnitude
  |x_j| is recovered exactly in each GS branch (avoiding the p-th power
  underflow at large p), and the vector is scaled by (sum_j |x_j|^p + E)^(-1/p)
  with E standard exponential.  p = 1 uses a plain exponential per
  coordinate and p = inf is coordinate-wise uniform.  The interval is B_inf^1.
* simplex: Dirichlet(1, ..., 1) weights from n + 1 exponentials, applied to
  the vertices (Devroye 1986, ch. V).
* linear image T K: a draw of K mapped by T (the polar is T^{-T} K deg, so
  the simplex polar, -n times the simplex, is covered too).
* A x_p B, p finite: with G_A, G_B sums of n_A, n_B Gamma(1/p) draws and E
  exponential, S = G_A + G_B + E, the factor A gets (G_A/S)^{1/p} u/g_A(u)
  for u uniform in A, and likewise B (Barthe, Guedon, Mendelson and Naor,
  Ann. Probab. 2005, lifted from coordinates to factors).  p = inf makes
  the factors independent.  A named revolution profile is
  [-1, 1] x_P B_2^{n-1} and is drawn as that product.
* grid revolution: the axis coordinate t by inverse transform of its
  density r(t)^{n-1}, which inverts in closed form on each linear segment,
  then the section coordinates uniform in the ball of radius r(t).

Each rule also returns the gauge r = g(x) of every point it draws, from
numbers it forms anyway: G^{1/p} / (G + E)^{1/p} for the p-ball, with G
the Gamma sum (the l_p norm of the magnitudes in place of G^{1/p} where G
underflows at huge p); max |x_j| for p = inf and the interval;
1 - (n + 1) min_j w_j for the simplex, from its Dirichlet weights; the
inner gauge for a linear image; (g_A^p + g_B^p)^{1/p} of the factor shares
for A x_p B (max(g_A, g_B) at p = inf), so the factor's own returned gauge
scales its draw; and gauge_batch for a grid revolution.

Slot layout.  Each node owns a contiguous block of slots, starting at the
slot its parent hands it; the block sizes depend only on the dimensions
(see _slot_count).  For a node at slot s in dimension n:

    p-ball, interval    s .. s+n-1   coordinate magnitudes: GS round k reads
                                     counters (2k, 2k + 1); p = 1 and p = inf
                                     read counter 0
                        s+n          signs (counter = coordinate)
                        s+n+1        the radial exponential
    simplex             s .. s+n     the n + 1 exponentials
    linear image        the inner body's block
    A x_p B             A's block, then B's block, then n_A + n_B GS slots
                        (G_A, then G_B), then one slot for E; p = inf reads
                        only the two factor blocks
    named revolution    the block of [-1, 1] x_P B_2^{n-1}
    grid revolution     s            segment and axis coordinate t
                        s+1          section radius u^{1/(n-1)} r(t)
                        s+2 ..       Box-Muller pairs, two slots per pair;
                                     every grid slot reads counter 0

A p-ball at the root keeps the layout it always had, so its points are
unchanged.

The GS kernel is vectorized over samples: each coordinate runs its rounds
on the lanes (one sample's draw for that coordinate) still rejecting,
compacting the accepted ones out after every round.  Once few lanes remain,
they run several rounds at once and keep their first accepted one, so the
tail of a coordinate costs a few array calls, not one round each.  Each
branch of a round is evaluated only on the candidates it applies to.  A
lane's round k reads counters (2k, 2k + 1) of its own slot whatever the
other lanes do.
"""

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np

from .bodies import (
    PRIMAL,
    Interval,
    LinearImage,
    PBall,
    Product,
    Simplex,
    _combine_p,
    _pnorm_rows,
    _simplex_vertices,
    gauge_batch,
    membership_batch,  # not called here; the benchmark's trace hooks this name
    polar_body,
    resolve_side,
)
from .errors import DomainError
from .rng import sample_bases_v, u01_v

_E = math.e
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class MCEstimate:
    estimate: float
    stderr: float
    samples: int
    seed: int


# ---------------------------------------------------------------------------
# Gamma(1/p) draws and the p-ball
# ---------------------------------------------------------------------------


def _rounds(lanes):
    """Rejection rounds drawn at once for this many lanes still rejecting.

    One round while more than 2,048 lanes remain, then 4096 // lanes rounds
    (at most 64), so a coordinate does not pay a full round's Python
    overhead for a handful of lanes.
    """
    return max(1, min(4096 // lanes, 64))


def _gamma_gs(bases, p, slot, k):
    """(g, |g|^(1/p)) as (m, k) arrays: Gamma(1/p) draws on slots slot..slot+k-1.

    p = 1 is one exponential per coordinate; otherwise Ahrens-Dieter GS
    with lane compaction, returning the exact magnitude from each branch.
    Lanes still rejecting run _rounds(lanes) rounds at once and keep their
    first accepted round r, read at counters (2r, 2r + 1).
    """
    m = bases.shape[0]
    gs = np.empty((m, k))
    mags = np.empty((m, k))
    a = 1.0 / p
    b = 1.0 + a / _E
    for j in range(k):
        sj = slot + j
        if p == 1.0:
            g = -np.log(u01_v(bases, sj, 0))
            gs[:, j] = g
            mags[:, j] = g
            continue
        act = np.arange(m)  # rows still rejecting in this coordinate
        r = 0
        while act.size:
            rounds = _rounds(act.size)
            # candidate c is lane lanes[c] at counters (ks[c], ks[c] + 1); a
            # one-round batch uses act and a scalar counter, with no copies
            lanes, ks = act, np.uint64(2 * r)
            if rounds > 1:
                lanes = np.repeat(act, rounds)
                ks = np.tile(np.arange(2 * r, 2 * (r + rounds), 2, dtype=np.uint64), act.size)
            r += rounds
            lane_bases = bases[lanes]
            q = b * u01_v(lane_bases, sj, ks)
            u2 = u01_v(lane_bases, sj, ks + 1)
            small = np.nonzero(q <= 1.0)[0]
            big = np.nonzero(q > 1.0)[0]
            # small branch: g = q^p, magnitude q exactly (no p-th root underflow)
            g_small = q[small] ** p
            ok_small = u2[small] <= np.exp(-g_small)
            # big branch: g = -log((b - q) / a)
            g_big = -np.log((b - q[big]) * p)
            log_g = np.log(g_big)
            ok_big = u2[big] <= np.exp((a - 1.0) * log_g)
            acc = np.empty(q.size, dtype=bool)
            acc[small] = ok_small
            acc[big] = ok_big
            acc = acc.reshape(act.size, rounds)
            if rounds > 1:  # a lane keeps only its first accepted round
                acc &= np.cumsum(acc, axis=1) == 1
                ok_small, ok_big = acc.ravel()[small], acc.ravel()[big]
            rows = lanes[small[ok_small]]
            gs[rows, j] = g_small[ok_small]
            mags[rows, j] = q[small[ok_small]]
            rows = lanes[big[ok_big]]
            gs[rows, j] = g_big[ok_big]
            mags[rows, j] = np.exp(a * log_g[ok_big])
            act = act[~acc.any(axis=1)]
    return gs, mags


def _pball_rows(bases, n, p, slot):
    """Uniform points x in the unit p-ball and their gauges, one row per stream key.

    The gauge is G^(1/p) / (G + E)^(1/p) from the Gamma sum G the rule
    forms anyway.  At huge p, G = sum q^p can underflow while x != 0; below the
    smallest normal double those rows take the l_p norm of their magnitudes.
    """
    p = float(p)
    m = bases.shape[0]
    if p == np.inf:
        out = np.empty((m, n))
        r = np.zeros(m)
        for j in range(n):
            col = 2.0 * u01_v(bases, slot + j, 0) - 1.0
            out[:, j] = col
            # a running max of the contiguous column: no (m, n) temporary
            np.maximum(r, np.abs(col, out=col), out=r)
        return out, r
    gs, out = _gamma_gs(bases, p, slot, n)
    e = -np.log(u01_v(bases, slot + n + 1, 0))
    g = gs.sum(axis=1)
    del gs
    denom = (g + e) ** (1.0 / p)
    r = g ** (1.0 / p)
    r /= denom
    low = g < _TINY
    if low.any():
        r[low] = _pnorm_rows(out[low], p) / denom[low]
    # scale the magnitudes in place, then the signs: -(m / d) == (-m) / d
    out /= denom[:, None]
    for j in range(n):
        out[:, j] *= np.where(u01_v(bases, slot + n, j) < 0.5, -1.0, 1.0)
    return out, r


def sample_pball(dim, p, count, seed, *, index_offset=0):
    """count uniform points in the unit p-ball (sample indices offset..)."""
    indices = np.arange(index_offset, index_offset + count, dtype=np.uint64)
    return _dispatch_sample(PBall(dim, p), seed, indices)


# ---------------------------------------------------------------------------
# the other rules
# ---------------------------------------------------------------------------


def _named_product(body):
    """A named revolution profile as the product [-1, 1] x_P B_2^{n-1}."""
    return Product(body.profile.exponent, Interval(), PBall(body.dim - 1, 2.0))


def _slot_count(body):
    """Size of the node's slot block (see the module docstring)."""
    if isinstance(body, (PBall, Interval)):
        return body.dim + 2
    if isinstance(body, Simplex):
        return body.dim + 1
    if isinstance(body, LinearImage):
        return _slot_count(body.inner)
    if isinstance(body, Product):
        return _slot_count(body.left) + _slot_count(body.right) + body.dim + 1
    if body.profile.kind != "grid":
        return _slot_count(_named_product(body))
    return 2 + 2 * (body.dim // 2)


def _simplex_rows(bases, n, slot):
    """Dirichlet(1, ..., 1) weights of n + 1 exponentials on the vertices.

    The vertices sum to 0, so x = sum_j (w_j - min w) v_j: its gauge is
    r = 1 - (n + 1) min w, and x / r has weights (w - min w) / r, one of
    them 0.
    """
    # before the large temporaries: the first call caches arrays that live on,
    # and allocated after those temporaries they would keep the heap from shrinking
    verts = _simplex_vertices(n)
    w = np.empty((bases.shape[0], n + 1))
    for j in range(n + 1):
        w[:, j] = u01_v(bases, slot + j, 0)
    w = -np.log(w)
    w /= w.sum(axis=1)[:, None]
    low = w[:, 0].copy()
    for j in range(1, n + 1):  # column by column: w.min(axis=1) is 8x slower
        np.minimum(low, w[:, j], out=low)
    return w @ verts, 1.0 - (n + 1) * low


def _product_rows(body, bases, slot):
    factors = (body.left, body.right)
    starts = (slot, slot + _slot_count(body.left))
    out = np.empty((bases.shape[0], body.dim))
    cols = (slice(0, body.left.dim), slice(body.left.dim, body.dim))
    if math.isinf(body.p):
        gauges = []
        for factor, start, col in zip(factors, starts, cols):
            out[:, col], r = _draw(factor, bases, start)
            gauges.append(r)
        return out, np.maximum(*gauges)
    # one factor at a time: its Gamma sum G and G^(1/p), the l_p norm of the
    # GS magnitudes, which never underflows
    p = body.p
    sg = starts[1] + _slot_count(body.right)
    total = -np.log(u01_v(bases, sg + body.dim, 0))
    norms = []
    for factor, col in zip(factors, cols):
        gs, mags = _gamma_gs(bases, p, sg + col.start, factor.dim)
        total += gs.sum(axis=1)
        norms.append(_pnorm_rows(mags, p))
        del gs, mags  # free them before the next factor's draws
    denom = total ** (1.0 / p)
    for factor, start, col, norm in zip(factors, starts, cols, norms):
        x, r = _draw(factor, bases, start)
        out[:, col] = x * (norm / (denom * r))[:, None]
    return out, _combine_p(*norms, p) / denom


def _sample_reject_indices(body, bases, slot):
    """Grid revolution by inverse transform, O(n) per sample, every slot at counter 0.

    Nothing is rejected: the name is kept because the benchmark's trace hooks
    it.  The density of t is r^{n-1}.  A segment of width w, read from its
    wider end, radius hi, to radius (1 - d) hi, has mass w hi^{n-1} (1 - (1 -
    d)^n) / (n d); hi <= r(0) = 1, so hi^{n-1} underflows only on negligible
    masses.  r^n is uniform on the segment, so a uniform g lands at the share
    s = -expm1(log1p(g c) / n) / d of the way, c = (1 - d)^n - 1 (s = g when
    d = 0, and log1p(-1) = -inf at a zero radius).
    """
    n = body.dim
    kt, kr = body.profile.knots.T
    w = np.diff(kt)
    up = kr[1:] > kr[:-1]
    hi = np.where(up, kr[1:], kr[:-1])
    t_hi = np.where(up, kt[1:], kt[:-1])
    step = np.where(up, -w, w)  # from t_hi to the other end
    d = (hi - np.minimum(kr[:-1], kr[1:])) / hi
    c = np.expm1(n * np.log1p(-d, out=np.full_like(d, -np.inf), where=d < 1.0))
    mass = w * hi ** (n - 1) * np.divide(-c, n * d, out=np.ones_like(d), where=d > 0.0)
    cum = np.concatenate([[0.0], np.cumsum(mass)])
    cum /= cum[-1]
    u = u01_v(bases, slot, 0)
    seg = np.searchsorted(cum, u, side="right") - 1
    g = (u - cum[seg]) / (cum[seg + 1] - cum[seg])
    gc = g * c[seg]
    s = -np.expm1(np.log1p(gc, out=np.full_like(gc, -np.inf), where=gc > -1.0) / n)
    s = np.divide(s, d[seg], out=g, where=d[seg] > 0.0)
    out = np.empty((bases.shape[0], n))
    out[:, 0] = t_hi[seg] + s * step[seg]
    rad = hi[seg] * (1.0 - s * d[seg]) * u01_v(bases, slot + 1, 0) ** (1.0 / (n - 1))
    z = out[:, 1:]
    for i in range(n // 2):
        mag = np.sqrt(-2.0 * np.log(u01_v(bases, slot + 2 + 2 * i, 0)))
        ang = 2.0 * np.pi * u01_v(bases, slot + 3 + 2 * i, 0)
        z[:, 2 * i] = mag * np.cos(ang)
        if 2 * i + 1 < n - 1:
            z[:, 2 * i + 1] = mag * np.sin(ang)
    z *= (rad / np.linalg.norm(z, axis=1))[:, None]
    return out


def _draw(body, bases, slot):
    """(x, r): one uniform point x of the body per stream key, from its slot
    block, and its gauge r = g_body(x)."""
    if isinstance(body, PBall):
        return _pball_rows(bases, body.dim, body.p, slot)
    if isinstance(body, Interval):
        return _pball_rows(bases, 1, np.inf, slot)
    if isinstance(body, Simplex):
        return _simplex_rows(bases, body.dim, slot)
    if isinstance(body, LinearImage):
        x, r = _draw(body.inner, bases, slot)
        return x @ body.matrix.T, r
    if isinstance(body, Product):
        return _product_rows(body, bases, slot)
    if body.profile.kind != "grid":
        return _product_rows(_named_product(body), bases, slot)
    x = _sample_reject_indices(body, bases, slot)
    return x, gauge_batch(body, x)


def sample_body(body, side, count, seed, *, index_offset=0):
    """count uniform points in the requested side of the body."""
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    resolved = resolve_side(body, side)
    indices = np.arange(index_offset, index_offset + count, dtype=np.uint64)
    return _dispatch_sample(resolved, seed, indices)


def _dispatch_sample(resolved, seed, indices, *, boundary=False):
    """The rows x drawn at these sample indices, or x / g(x) when boundary."""
    x, r = _draw(resolved, sample_bases_v(seed, indices), 0)
    if boundary:
        x /= r[:, None]
    return x


# ---------------------------------------------------------------------------
# the estimator
# ---------------------------------------------------------------------------

# pairs per block, in rows whatever the dimension, so each block's
# per-coordinate Python loops stay a fixed share of its work.  The samples
# split into round(samples / _BLOCK) blocks of about equal size, so no short
# tail block pays those loops for a few rows.
_BLOCK = 32_768
# index groups of the stderr: enough for a stable variance of the group
# projections, few enough that 2 * _GROUPS * n^2 doubles stay small
_GROUPS = 64


def _core(body):
    """The body with every linear map dropped.

    (T1 A) x_p (T2 B) = diag(T1, T2) (A x_p B), so the maps inside a product
    hoist to one map at the top, and phi(T K) = phi(K).  A map's slot block is
    its inner body's, so the core draws the body's points with the maps undone.
    """
    if isinstance(body, LinearImage):
        return _core(body.inner)
    if isinstance(body, Product):
        return replace(body, left=_core(body.left), right=_core(body.right))
    return body


def estimate_phi(body, samples, seed) -> MCEstimate:
    """All-pairs Monte Carlo for phi(K) = tr(M_K M_K°) on boundary points.

    Every linear map of the body is dropped first (_core), so the estimate
    for T K is the one for K, bit for bit, and products by T and T^{-T}
    cannot cancel.  Pair i draws u = x / g(x) from the body at sample index
    2i and v from its polar at index 2i + 1.  With S_x = n/(n+2) (1/M) sum_i u_i
    u_i^T and likewise S_y, the estimate is tr(S_x S_y) (see the module
    docstring for why M_K = n/(n+2) E[u u^T]).

    The indices split into G = min(_GROUPS, M) equal groups, and only each
    group's sums of u u^T and v v^T are kept.  The stderr comes from the two
    Hoeffding projections: with group means Sbar^g, w_g = tr(Sbar_x^g S_y)
    + tr(S_x Sbar_y^g), and stderr = sqrt(sum_g (w_g - wbar)^2 / (G(G-1))).
    Pairs are drawn in blocks of about _BLOCK = 32,768 indices, each block
    made of whole groups while there are at most G blocks, so memory is
    O(block * n + G * n^2) with no term in M, and the result is
    bit-identical to summing each group over all its draws at once.
    """
    if samples < 2:
        raise DomainError(f"need at least 2 samples, got {samples}")
    primal = _core(resolve_side(body, PRIMAL))
    polar = polar_body(primal)
    n = primal.dim
    c = n / (n + 2.0)  # E r^2
    groups = min(_GROUPS, samples)
    edges = [g * samples // groups for g in range(groups + 1)]
    blocks = max(1, round(samples / _BLOCK))
    if blocks <= groups:
        cuts = [edges[b * groups // blocks] for b in range(blocks + 1)]
    else:
        cuts = [b * samples // blocks for b in range(blocks + 1)]
    sx = np.zeros((groups, n, n))
    sy = np.zeros((groups, n, n))
    for start, stop in zip(cuts[:-1], cuts[1:]):
        idx = np.arange(start, stop, dtype=np.uint64)
        us = _dispatch_sample(primal, seed, 2 * idx, boundary=True)
        vs = _dispatch_sample(polar, seed, 2 * idx + 1, boundary=True)
        for g in range(bisect.bisect_right(edges, start) - 1, bisect.bisect_left(edges, stop)):
            rows = slice(max(edges[g], start) - start, min(edges[g + 1], stop) - start)
            # np.dot: less call overhead than @ on these small products
            sx[g] += np.dot(us[rows].T, us[rows])
            sy[g] += np.dot(vs[rows].T, vs[rows])
        del us, vs  # free this block's draws before the next block's
    mx = c * (sx.sum(axis=0) / samples)
    my = c * (sy.sum(axis=0) / samples)
    est = float(np.einsum("ij,ji->", mx, my))
    # w_g = tr(Sbar_x^g S_y) + tr(S_x Sbar_y^g), the group mean taken last
    w = (np.einsum("gij,ji->g", sx, my) + np.einsum("ij,gji->g", mx, sy)) * c / np.diff(edges)
    stderr = float(np.sqrt(np.sum((w - w.mean()) ** 2) / (groups * (groups - 1))))
    return MCEstimate(estimate=est, stderr=stderr, samples=int(samples), seed=int(seed))
