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
batched.  The estimator draws its pairs in blocks of about 32,768 indices,
one side at a time, and keeps only each group's sums of u u^T and v v^T:
memory is O(block * n + G * n^2), with no term in the sample count.  Every
rule takes its arrays from the block pool (_BlockArrays), so one estimate
reuses them from block to block and keeps nothing after it returns.

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
                                     counter 0, p = 2 counters 0 and 1
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

Gamma(1/p) is -ln U at p = 1 and -ln(U0) cos^2(2 pi U1) at p = 2 (Exp(1)
times Beta(1/2, 1/2), as in Box-Muller), and GS rejection vectorized over
samples at other p (_gamma_gs): each coordinate's draws fill one contiguous
row, and a lane's round k reads counters (2k, 2k + 1) of its own slot
whatever the other lanes do.
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
from .exact import _check_dim
from .rng import parse_seed, sample_bases_v, u01_v

_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class MCEstimate:
    estimate: float
    stderr: float
    samples: int
    seed: int


class _BlockArrays:
    """The float arrays one estimate hands on from each draw to the next.

    Every rule takes its arrays here (Gamma rows, weights, points) and gives
    each back once done with it, so the next draw reuses them instead of
    fresh memory, whose pages the system would map again.  A take is the
    smallest free array large enough; a fresh one is sized for the largest
    block, so blocks a few rows longer still fit.  While keep is False a
    given array is dropped, as with no pool.
    """

    def __init__(self, rows):
        self.rows = rows  # the largest block's rows
        self.m = rows  # this block's rows
        self.keep = False
        self.free = []

    def take(self, shape):
        """An uninitialized C-order float array of this shape, one of whose
        axes is the block's m rows."""
        size = math.prod(shape)
        fits = [i for i, a in enumerate(self.free) if a.size >= size]
        if fits:
            buf = self.free.pop(min(fits, key=lambda i: self.free[i].size))
        else:
            buf = np.empty(size // max(self.m, 1) * self.rows)
        return buf[:size].reshape(shape)

    def give(self, a):
        """Hand back a view that take lent and nothing uses."""
        if self.keep:
            self.free.append(a.base)


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


def _gamma_gs(bases, p, slot, k, pool):
    """(g, |g|^(1/p)) as (k, m) arrays: row j holds the Gamma(1/p) draws of slot slot + j.

    p = 1 is an exponential, p = 2 -ln(U0) cos^2(2 pi U1), each computed in
    its rows.  Otherwise Ahrens-Dieter GS (Computing 12, 1974) with lane
    compaction, with the exact magnitude from each branch.  A one-round batch
    writes every candidate to its lane: a rejected lane is written again by a
    later round, and the round that accepts it writes it last.  So the first
    round, whose lanes are the rows in order, writes with no gather.  Lanes
    still rejecting run _rounds(lanes) rounds at once and write only their
    first accepted round r, read at counters (2r, 2r + 1).  Both arrays come
    from the pool.
    """
    m = bases.shape[0]
    gs = pool.take((k, m))
    mags = pool.take((k, m))
    a = 1.0 / p
    b = 1.0 + a / math.e
    for j in range(k):
        sj = slot + j
        g_row, m_row = gs[j], mags[j]
        if p in (1.0, 2.0):  # no rejection
            np.negative(np.log(u01_v(bases, sj, 0), out=g_row), out=g_row)
            if p == 1.0:
                m_row[...] = g_row
            else:
                c = u01_v(bases, sj, 1)
                c *= 2.0 * np.pi
                g_row *= np.square(np.cos(c, out=c), out=c)
                np.sqrt(g_row, out=m_row)
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
            first = r == 0 and rounds == 1  # the lanes are the rows, in order
            lane_bases = bases if first else bases[lanes]
            r += rounds
            # in the first round q goes straight into the magnitudes: the small
            # branch's magnitude is q, and the big branch overwrites its lanes
            q = np.multiply(u01_v(lane_bases, sj, ks), b, out=m_row if first else None)
            u2 = u01_v(lane_bases, sj, ks + 1)
            small = np.nonzero(q <= 1.0)[0]
            big = np.nonzero(q > 1.0)[0]
            # small branch: g = q^p, magnitude q exactly (no p-th root underflow)
            q_small = q[small]
            g_small = q_small ** p
            ok_small = u2[small] <= np.exp(-g_small)
            # big branch: g = -log((b - q) / a)
            g_big = -np.log((b - q[big]) * p)
            log_g = np.log(g_big)
            ok_big = u2[big] <= np.exp((a - 1.0) * log_g)
            acc = np.empty(q.size, dtype=bool)
            acc[small] = ok_small
            acc[big] = ok_big
            if rounds > 1:  # a lane keeps only its first accepted round
                per_lane = acc.reshape(act.size, rounds)  # a view of acc
                per_lane &= np.cumsum(per_lane, axis=1) == 1
                ok_small, ok_big = acc[small], acc[big]
                acc = per_lane.any(axis=1)
                small, q_small, g_small = small[ok_small], q_small[ok_small], g_small[ok_small]
                big, g_big, log_g = big[ok_big], g_big[ok_big], log_g[ok_big]
            # every candidate left is written to its lane, accepted or not
            if first:  # the lanes are the rows, and m_row already holds q
                g_row[small] = g_small
                g_row[big] = g_big
                m_row[big] = np.exp(a * log_g)
            else:
                rows = lanes[small]
                g_row[rows] = g_small
                m_row[rows] = q_small
                rows = lanes[big]
                g_row[rows] = g_big
                m_row[rows] = np.exp(a * log_g)
            act = np.flatnonzero(~acc) if first else act[~acc]  # first: act[~acc], no gather
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


def _lp_rows(body, bases, slot, pool):
    """Cone-measure points of a x_p node, a product or a p-ball: the n-ary rule.

    Factor i's part is G_i^{1/p} u_i, and the point is the parts over their
    l_p norm (sum G)^{1/p}; at p = inf the part is V_i^{1/n_i} u_i, over the
    largest radius.  G_i^{1/p} and (sum G)^{1/p} are p-th roots of the Gamma
    sums; where a sum underflows at huge p, the l_p norm of the magnitudes
    behind it, which never underflow, takes its place.  Coordinates are drawn
    as contiguous rows and transposed once, by the final division.  The rows,
    the factors' points and the result are taken from the pool, and each
    goes back to it once used.
    """
    p = float(body.p)
    m = bases.shape[0]
    inf = math.isinf(p)
    total = np.zeros(m)  # sum G, or the largest radius at p = inf
    parts, norms = [], []  # (m, n_i) arrays, coordinates as transposed (n_i, m) rows
    for share, factor, start in _factors(body, slot):
        k = factor.dim
        coords = share is None
        if coords and inf:
            rows = pool.take((k, m))
            for j, w in enumerate(rows):
                t = u01_v(bases, start + j, 0)
                t *= 2.0
                np.subtract(t, 1.0, out=w)
                np.maximum(total, np.abs(w, out=t), out=total)
            part = rows.T
        elif coords:
            gs, mags = _gamma_gs(bases, p, start, k, pool)
            total += _row_sums(gs)
            pool.give(gs)
            del gs
            for j, row in enumerate(mags):
                np.copysign(row, u01_v(bases, start + k, j) - 0.5, out=row)
            part = mags.T
            norms.append(part)
        elif inf:
            rad = u01_v(bases, share, 0) ** (1.0 / k)
            part = _draw(factor, bases, start, pool)
            part *= rad[:, None]
            np.maximum(total, rad, out=total)
        else:
            gs, mags = _gamma_gs(bases, p, share, k, pool)
            s = _row_sums(gs)
            total += s
            low = s < _TINY
            s **= 1.0 / p
            if low.any():
                s[low] = _pnorm_rows(mags.T[low], p)
            norms.append(s[:, None])
            pool.give(gs)
            pool.give(mags)
            del gs, mags  # free them before the factor's own draws
            part = _draw(factor, bases, start, pool)
            part *= norms[-1]
        parts.append(part)
    if not inf:
        low = total < _TINY
        total **= 1.0 / p
        if low.any():
            total[low] = _pnorm_rows(np.hstack([a[low] for a in norms]), p)
    out = pool.take((m, body.dim))
    col = 0
    for part in parts:
        np.divide(part, total[:, None], out=out[:, col : col + part.shape[1]])
        col += part.shape[1]
        pool.give(part)
    return out


def _row_sums(gs):
    """Each sample's sum of its k draws in the rows of gs.

    Bit for bit as NumPy sums the (m, k) array along its rows: one term at a
    time below 8 terms, pairwise from 8.  The pairwise sums read C-order
    (m, k) copies, made 4,096 samples at a time to keep the copy small.
    """
    k, m = gs.shape
    if k < 8:
        return gs.sum(axis=0)
    out = np.empty(m)
    for c in range(0, m, 4096):
        out[c : c + 4096] = gs[:, c : c + 4096].T.copy().sum(axis=1)
    return out


def _simplex_rows(bases, n, slot, pool):
    """The facet opposite the smallest of n + 1 exponentials w, with the
    weights (w - min w) / sum(w - min w) on the vertices (the other n of them
    Dirichlet(1, ..., 1), by the memorylessness of the exponential)."""
    # before the large arrays: the first call caches arrays that live on, and
    # allocated after those arrays they would keep the heap from shrinking
    verts = _simplex_vertices(n)
    m = bases.shape[0]
    w = pool.take((m, n + 1))
    for j in range(n + 1):
        w[:, j] = u01_v(bases, slot + j, 0)
    np.negative(np.log(w, out=w), out=w)
    low = w[:, 0].copy()
    for j in range(1, n + 1):  # column by column: w.min(axis=1) is 8x slower
        np.minimum(low, w[:, j], out=low)
    w -= low[:, None]
    w /= w.sum(axis=1)[:, None]
    out = np.matmul(w, verts, out=pool.take((m, n)))
    pool.give(w)
    return out


def _sample_reject_indices(body, bases, slot, pool):
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
    out = pool.take((bases.shape[0], n))
    out[:, 0] = t_hi[seg] + s * step[seg]
    rho = hi[seg] * (1.0 - s * d[seg])
    z = out[:, 1:]
    for i in range(n // 2):
        mag = np.sqrt(-2.0 * np.log(u01_v(bases, slot + 2 + 2 * i, 0)))
        ang = 2.0 * np.pi * u01_v(bases, slot + 3 + 2 * i, 0)
        z[:, 2 * i] = mag * np.cos(ang)
        if 2 * i + 1 < n - 1:
            z[:, 2 * i + 1] = mag * np.sin(ang)
    sq = np.square(z, out=pool.take(z.shape))  # np.linalg.norm's squares, in the pool
    z *= (rho / np.sqrt(sq.sum(axis=1)))[:, None]
    pool.give(sq)
    return out


def _draw(body, bases, slot, pool=None):
    """One cone-measure point u of the body per stream key, g(u) = 1, from
    the node's slot block, in an array taken from the pool (a pool of its
    own when none is given).  The points are the caller's to give back."""
    m = bases.shape[0]
    pool = pool or _BlockArrays(m)
    if isinstance(body, Interval):
        return np.copysign(1.0, u01_v(bases, slot, 0)[:, None] - 0.5, out=pool.take((m, 1)))
    if isinstance(body, (PBall, Product)):
        return _lp_rows(body, bases, slot, pool)
    if isinstance(body, Simplex):
        return _simplex_rows(bases, body.dim, slot, pool)
    if isinstance(body, LinearImage):
        u = _draw(body.inner, bases, slot, pool)
        out = np.matmul(u, body.matrix.T, out=pool.take((m, body.dim)))
        pool.give(u)
        return out
    if body.profile.kind != "grid":
        return _lp_rows(_named_product(body), bases, slot, pool)
    return _sample_reject_indices(body, bases, slot, pool)


def _dispatch_sample(resolved, seed, indices, pool=None):
    """The cone-measure points u drawn at these sample indices."""
    return _draw(resolved, sample_bases_v(seed, indices), 0, pool)


def sample_body(body, side, count, seed, *, index_offset=0):
    """count uniform points in the requested side of the body: u V^{1/n}."""
    count = _check_dim(count, what="count")
    index_offset = _check_dim(index_offset, 2**64 - count, low=0, what="index_offset")
    seed = parse_seed(seed)
    resolved = resolve_side(body, side)
    indices = np.arange(index_offset, index_offset + count, dtype=np.uint64)
    u = _dispatch_sample(resolved, seed, indices)
    v = u01_v(sample_bases_v(seed, indices), _slot_count(resolved), 0)
    u *= (v ** (1.0 / resolved.dim))[:, None]
    return u


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
    Pairs are drawn in blocks of about _BLOCK = 32,768 indices, one side at
    a time.  While there are at most G blocks (round(M / _BLOCK) <= 64, so M
    below about 2.1 million), each block is made of whole groups, and the
    result is bit-identical to summing each group over all its draws at
    once.  Past that, a group's sums add up over several blocks and agree
    with those only to rounding.
    """
    samples = _check_dim(samples, low=2, what="samples")
    seed = parse_seed(seed)
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
    pool = _BlockArrays(max(np.diff(cuts)))
    for start, stop in zip(cuts[:-1], cuts[1:]):
        pool.m = stop - start
        idx = np.arange(start, stop, dtype=np.uint64)
        for side, sums, parity in ((primal, sx, 0), (polar, sy, 1)):
            pts = _dispatch_sample(side, seed, 2 * idx + parity, pool)
            for g in range(bisect.bisect_right(edges, start) - 1, bisect.bisect_left(edges, stop)):
                rows = slice(max(edges[g], start) - start, min(edges[g + 1], stop) - start)
                # np.dot: less call overhead than @ on these small products
                sums[g] += np.dot(pts[rows].T, pts[rows])
            pool.give(pts)
            del pts
            # the first draw frees its arrays as with no pool: glibc raises its
            # mmap threshold on the first free of a large array, and with none
            # freed every row-sized temporary would be mapped anew.  From then
            # on every array goes back to the pool, unless the estimate is one block
            pool.keep = blocks > 1
    mx = c * (sx.sum(axis=0) / samples)
    my = c * (sy.sum(axis=0) / samples)
    est = float(np.einsum("ij,ji->", mx, my))
    # w_g = tr(Sbar_x^g S_y) + tr(S_x Sbar_y^g), the group mean taken last
    w = (np.einsum("gij,ji->g", sx, my) + np.einsum("ij,gji->g", mx, sy)) * c / np.diff(edges)
    stderr = float(np.sqrt(np.sum((w - w.mean()) ** 2) / (groups * (groups - 1))))
    return MCEstimate(estimate=est, stderr=stderr, samples=samples, seed=seed)
