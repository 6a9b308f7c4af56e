"""Monte Carlo estimation of the polar pairing functional.

phi(K) = tr(M_K M_K°) with M_K = E[x x^T] for x uniform in K.  Write x =
r u with r = g_K(x) its gauge and u = x / r on the boundary: r and u are
independent, r^n ~ U(0, 1) in every body, and u follows the cone measure of
K, so M_K = n/(n+2) E[u u^T] exactly.  The estimator draws M cone-measure
points u_i of the body and M points v_i of its polar, and returns
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

Streams are counter-based (see rng): pair i reads sample index 2i for u and
2i + 1 for v, and every uniform is a pure function of (seed, sample index,
slot, counter).  Results are therefore bit-identical however the work is
batched.  The estimator draws its pairs in blocks of about 32,768 indices
and keeps only each group's sums of u u^T and v v^T: memory is
O(block * n + G * n^2), with no term in the sample count.

Every body type has an exact rule for its cone measure, an array kernel
over the sample indices that returns u with g(u) = 1:

* x_p node: factor i gets (G_i / sum G)^{1/p} u_i, with G_i ~ Gamma(n_i/p)
  and u_i a cone-measure point of the factor (Barthe, Guedon, Mendelson and
  Naor, Ann. Probab. 2005, without the radial exponential).  B_p^n is the
  x_p node of n intervals, whose cone points are +-1: u_j = e_j
  (g_j / sum g)^{1/p}, g_j ~ Gamma(1/p) (Schechtman and Zinn 1990).  Nested
  x_p nodes of the same p, p-balls included, flatten into one node.  At
  p = inf factor i gets the radius V_i^{1/n_i}, V_i uniform (a p-ball
  coordinate is w = 2U - 1, radius |w|), over the largest radius.  A named
  revolution profile is the product [-1, 1] x_P B_2^{n-1}.
* simplex: the facet opposite the smallest of n + 1 exponentials w, with
  the weights (w - min w) / sum(w - min w) on the vertices.
* linear image T K: T u for u of K.
* grid revolution: each edge of the profile in the (t, rho) half-plane,
  the end caps t = +-1 included, gets the mass of the cone over it; rho^{n-1}
  is uniform along the edge, and the direction of y on S^{n-2}.

A uniform point of the body is u V^{1/n} with V uniform (sample_body), read
at counter 0 of the first slot past the root's block.

Slot layout.  Each node owns a contiguous block of slots, starting at the
slot its parent hands it; the block sizes depend only on the dimensions
(see _slot_count), and slots a rule does not read stay in its block.  For
a node at slot s in dimension n:

    p-ball              s .. s+n-1   coordinates: GS round k reads counters
                                     (2k, 2k + 1); p = 1 and p = inf read
                                     counter 0
                        s+n          signs (counter = coordinate)
                        s+n+1        unused
    interval            s            the sign; s+1 and s+2 unused
    simplex             s .. s+n     the n + 1 exponentials
    linear image        the inner body's block
    A x_p B             A's block, then B's block, then n_A + n_B GS slots
                        (G_A, then G_B; at p = inf, V_A and V_B at counter 0
                        of the first of each), then one unused slot
    named revolution    the block of [-1, 1] x_P B_2^{n-1}
    grid revolution     s            the edge
                        s+1          the point on the edge
                        s+2 ..       Box-Muller pairs, two slots per pair;
                                     every grid slot reads counter 0

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
    _pnorm_rows,
    _simplex_vertices,
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
# Gamma(1/p) draws
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


# ---------------------------------------------------------------------------
# the cone-measure rules
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


def _factors(body, slot):
    """(share slot, factor, factor slot) for each factor of the x_p node at slot.

    A p-ball stands for its coordinates, which read their own slots (share
    slot None).  A factor that is a x_p node of the same p is flattened into
    its factors.
    """
    if isinstance(body, PBall):
        return [(None, body, slot)]
    right = slot + _slot_count(body.left)
    share = right + _slot_count(body.right)
    out = []
    for factor, start, sg in ((body.left, slot, share), (body.right, right, share + body.left.dim)):
        if isinstance(factor, (PBall, Product)) and factor.p == body.p:
            out += _factors(factor, start)
        else:
            out.append((sg, factor, start))
    return out


def _lp_rows(body, bases, slot):
    """Cone-measure points of a x_p node, a product or a p-ball: the n-ary rule.

    Factor i's part is G_i^{1/p} u_i, and the point is the parts over their
    l_p norm (sum G)^{1/p}; at p = inf the part is V_i^{1/n_i} u_i, over the
    largest radius.  G_i^{1/p} is the l_p norm of the factor's GS magnitudes,
    which never underflows, so where sum G underflows at huge p the l_p norm
    of the G_i^{1/p} takes the place of (sum G)^{1/p}.
    """
    p = float(body.p)
    m = bases.shape[0]
    inf = math.isinf(p)
    total = np.zeros(m)  # sum G, or the largest radius at p = inf
    parts, norms = [], []
    for share, factor, start in _factors(body, slot):
        k = factor.dim
        coords = share is None
        if coords and inf:
            part = np.empty((m, k))
            for j in range(k):
                w = 2.0 * u01_v(bases, start + j, 0) - 1.0
                part[:, j] = w
                # a running max of the contiguous column: no (m, k) temporary
                np.maximum(total, np.abs(w, out=w), out=total)
        elif coords:
            gs, part = _gamma_gs(bases, p, start, k)
            total += gs.sum(axis=1)
            for j in range(k):
                part[:, j] *= np.where(u01_v(bases, start + k, j) < 0.5, -1.0, 1.0)
            norms.append(part)
        elif inf:
            rad = u01_v(bases, share, 0) ** (1.0 / k)
            part = _draw(factor, bases, start) * rad[:, None]
            np.maximum(total, rad, out=total)
        else:
            gs, mags = _gamma_gs(bases, p, share, k)
            total += gs.sum(axis=1)
            norms.append(_pnorm_rows(mags, p)[:, None])
            del gs, mags  # free them before the factor's own draws
            part = _draw(factor, bases, start) * norms[-1]
        parts.append(part)
    out = parts[0] if len(parts) == 1 else np.hstack(parts)
    if not inf:
        low = total < _TINY
        total **= 1.0 / p
        if low.any():
            total[low] = _pnorm_rows(np.hstack([a[low] for a in norms]), p)
    out /= total[:, None]
    return out


def _simplex_rows(bases, n, slot):
    """The facet opposite the smallest of n + 1 exponentials w, with the
    weights (w - min w) / sum(w - min w) on the vertices (the other n of them
    Dirichlet(1, ..., 1), by the memorylessness of the exponential)."""
    # before the large temporaries: the first call caches arrays that live on,
    # and allocated after those temporaries they would keep the heap from shrinking
    verts = _simplex_vertices(n)
    w = np.empty((bases.shape[0], n + 1))
    for j in range(n + 1):
        w[:, j] = u01_v(bases, slot + j, 0)
    w = -np.log(w)
    low = w[:, 0].copy()
    for j in range(1, n + 1):  # column by column: w.min(axis=1) is 8x slower
        np.minimum(low, w[:, j], out=low)
    w -= low[:, None]
    w /= w.sum(axis=1)[:, None]
    return w @ verts


def _sample_reject_indices(body, bases, slot):
    """Grid revolution by its cone measure, O(n) per sample, every slot at counter 0.

    Nothing is rejected: the name is kept because the benchmark's trace hooks
    it.  In the (t, rho) half-plane the boundary runs from (-1, 0) along the
    profile to (1, 0), the end caps being edges where r(+-1) > 0.  The cone
    from 0 over an edge from (t0, rho0) to (t1, rho1) has mass proportional
    to |t0 rho1 - t1 rho0| Int_0^1 rho^{n-2}, and along the edge rho^{n-1} is
    uniform.  Read from its wider end, radius hi, to radius (1 - d) hi, the
    integral is hi^{n-2} (1 - (1 - d)^{n-1}) / ((n - 1) d) (hi <= r(0) = 1,
    so hi^{n-2} underflows only on negligible masses), and a uniform g lands
    at the share s = -expm1(log1p(g c) / (n - 1)) / d of the way, c =
    (1 - d)^{n-1} - 1 (s = g when d = 0).  The direction of y is a normalized
    Gaussian vector from the Box-Muller slots.  No gauge is evaluated.
    """
    n = body.dim
    kt = np.concatenate([[-1.0], body.profile.knots[:, 0], [1.0]])
    kr = np.concatenate([[0.0], body.profile.knots[:, 1], [0.0]])
    cross = np.abs(kt[:-1] * kr[1:] - kt[1:] * kr[:-1])
    keep = cross > 0.0  # an end cap with r(+-1) = 0 is empty
    t0, t1, r0, r1, cross = kt[:-1][keep], kt[1:][keep], kr[:-1][keep], kr[1:][keep], cross[keep]
    up = r1 > r0
    hi = np.where(up, r1, r0)
    t_hi = np.where(up, t1, t0)
    step = np.where(up, t0 - t1, t1 - t0)  # from t_hi to the other end
    d = (hi - np.minimum(r0, r1)) / hi
    c = np.expm1((n - 1) * np.log1p(-d, out=np.full_like(d, -np.inf), where=d < 1.0))
    mass = cross * hi ** (n - 2) * np.divide(-c, (n - 1) * d, out=np.ones_like(d), where=d > 0.0)
    cum = np.concatenate([[0.0], np.cumsum(mass)])
    cum /= cum[-1]
    seg = np.searchsorted(cum, u01_v(bases, slot, 0), side="right") - 1
    g = u01_v(bases, slot + 1, 0)
    s = np.divide(-np.expm1(np.log1p(g * c[seg]) / (n - 1)), d[seg], out=g, where=d[seg] > 0.0)
    out = np.empty((bases.shape[0], n))
    out[:, 0] = t_hi[seg] + s * step[seg]
    rho = hi[seg] * (1.0 - s * d[seg])
    z = out[:, 1:]
    for i in range(n // 2):
        mag = np.sqrt(-2.0 * np.log(u01_v(bases, slot + 2 + 2 * i, 0)))
        ang = 2.0 * np.pi * u01_v(bases, slot + 3 + 2 * i, 0)
        z[:, 2 * i] = mag * np.cos(ang)
        if 2 * i + 1 < n - 1:
            z[:, 2 * i + 1] = mag * np.sin(ang)
    z *= (rho / np.linalg.norm(z, axis=1))[:, None]
    return out


def _draw(body, bases, slot):
    """One cone-measure point u of the body per stream key, g(u) = 1, from
    the node's slot block."""
    if isinstance(body, Interval):
        return np.where(u01_v(bases, slot, 0) < 0.5, -1.0, 1.0)[:, None]
    if isinstance(body, (PBall, Product)):
        return _lp_rows(body, bases, slot)
    if isinstance(body, Simplex):
        return _simplex_rows(bases, body.dim, slot)
    if isinstance(body, LinearImage):
        return _draw(body.inner, bases, slot) @ body.matrix.T
    if body.profile.kind != "grid":
        return _lp_rows(_named_product(body), bases, slot)
    return _sample_reject_indices(body, bases, slot)


def _dispatch_sample(resolved, seed, indices):
    """The cone-measure points u drawn at these sample indices."""
    return _draw(resolved, sample_bases_v(seed, indices), 0)


def sample_body(body, side, count, seed, *, index_offset=0):
    """count uniform points in the requested side of the body: u V^{1/n}."""
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    resolved = resolve_side(body, side)
    indices = np.arange(index_offset, index_offset + count, dtype=np.uint64)
    u = _dispatch_sample(resolved, seed, indices)
    v = u01_v(sample_bases_v(seed, indices), _slot_count(resolved), 0)
    return u * (v ** (1.0 / resolved.dim))[:, None]


def sample_pball(dim, p, count, seed, *, index_offset=0):
    """count uniform points in the unit p-ball (sample indices offset..)."""
    return sample_body(PBall(dim, p), PRIMAL, count, seed, index_offset=index_offset)


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
    cannot cancel.  Pair i draws a cone-measure point u of the body at
    sample index 2i and v of its polar at index 2i + 1.  With S_x = n/(n+2)
    (1/M) sum_i u_i u_i^T and likewise S_y, the estimate is tr(S_x S_y) (see
    the module docstring for why M_K = n/(n+2) E[u u^T]).

    The indices split into G = min(_GROUPS, M) equal groups, and only each
    group's sums of u u^T and v v^T are kept.  The stderr comes from the two
    Hoeffding projections: with group means Sbar^g, w_g = tr(Sbar_x^g S_y)
    + tr(S_x Sbar_y^g), and stderr = sqrt(sum_g (w_g - wbar)^2 / (G(G-1))).
    Pairs are drawn in blocks of about _BLOCK = 32,768 indices, so memory is
    O(block * n + G * n^2) with no term in M.  While there are at most G
    blocks (round(M / _BLOCK) <= 64, so M below about 2.1 million), each
    block is made of whole groups, and the result is bit-identical to
    summing each group over all its draws at once.  Past that, a group's
    sums add up over several blocks and agree with those only to rounding.
    """
    if samples < 2:
        raise DomainError(f"need at least 2 samples, got {samples}")
    primal = _core(resolve_side(body, PRIMAL))
    polar = polar_body(primal)
    n = primal.dim
    c = n / (n + 2.0)  # E g(x)^2
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
        us = _dispatch_sample(primal, seed, 2 * idx)
        vs = _dispatch_sample(polar, seed, 2 * idx + 1)
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
