"""Monte Carlo estimation of the polar pairing functional.

The estimator draws M independent pairs (x_i, y_i) with x_i uniform in the
body and y_i uniform in its polar, and averages <x_i, y_i>^2.  No variance
reduction is applied; the reported standard error is the plain sample
standard deviation over sqrt(M), so the estimate +/- a few stderr is an
honest confidence interval.

Streams are counter-based (see rng): pair i reads sample index 2i for x and
2i + 1 for y, and every uniform is a pure function of (seed, sample index,
slot, counter).  Results are therefore bit-identical however the work is
batched.  Slot layout per sample in dimension n:

    slots 0..n-1   magnitude draws for each coordinate (counter = retries)
    slot  n        signs (counter = coordinate)
    slot  n+1      the radial exponential

p-balls and intervals are sampled directly: |x_j|^p is Gamma(1/p) via the
Ahrens-Dieter GS rejection sampler (two uniforms per round, valid for shape
in (0,1)), the magnitude |x_j| is recovered exactly in each GS branch
(avoiding the p-th power underflow at large p), and the vector is scaled by
(sum_j |x_j|^p + E)^(-1/p) with E standard exponential.  p = 1 uses a plain
exponential per coordinate and p = inf is coordinate-wise uniform.

Everything else (products, revolution bodies, linear images, simplices) is
rejection from the axis-aligned cube of half-width bounding_radius; for the
simplex in particular this is simple and correct, if not the fastest
possible scheme, and can be swapped out without touching the estimator.  If
the acceptance rate stays below 1e-6 after two million candidates the
envelope is declared unusable and an EnvelopeError explains why.

The p-ball kernel is vectorized over samples: each coordinate runs its GS
rounds on the lanes (one sample's draw for that coordinate) still rejecting,
compacting the accepted ones out after every round, so uniforms are drawn
only where they are used.  Each branch of a round is evaluated only on the
lanes it applies to.  A lane's round k reads counters (2k, 2k + 1) of its
own slot whatever the other lanes do, so each sample stays a function of
(seed, index) alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bodies import PRIMAL, Interval, PBall, bounding_radius, membership_batch, polar_body, resolve_side
from .errors import DomainError, EnvelopeError
from .rng import sample_bases_v, u01_v

_E = math.e
_MIN_ACCEPTANCE = 1e-6
_ENVELOPE_BUDGET = 2_000_000


@dataclass(frozen=True)
class MCEstimate:
    estimate: float
    stderr: float
    samples: int
    seed: int


# ---------------------------------------------------------------------------
# direct p-ball sampling
# ---------------------------------------------------------------------------


def _sample_pball_indices(n, p, seed, indices):
    """Uniform points in the unit p-ball, one row per sample index."""
    bases = sample_bases_v(seed, indices)
    p = float(p)
    m = bases.shape[0]
    if p == np.inf:
        cols = [2.0 * u01_v(bases, j, 0) - 1.0 for j in range(n)]
        return np.stack(cols, axis=1)
    a = 1.0 / p
    b = 1.0 + a / _E
    gs = np.empty((m, n))
    mags = np.empty((m, n))
    for j in range(n):
        if p == 1.0:
            g = -np.log(u01_v(bases, j, 0))
            gs[:, j] = g
            mags[:, j] = g
            continue
        act = np.arange(m)  # rows still rejecting in this coordinate
        k = 0
        while act.size:
            lane_bases = bases[act]
            q = b * u01_v(lane_bases, j, k)
            u2 = u01_v(lane_bases, j, k + 1)
            k += 2
            acc = np.empty(act.size, dtype=bool)
            small = np.nonzero(q <= 1.0)[0]
            big = np.nonzero(q > 1.0)[0]
            # small branch: g = q^p, magnitude q exactly (no p-th root underflow)
            g_small = q[small] ** p
            ok = u2[small] <= np.exp(-g_small)
            acc[small] = ok
            rows = act[small[ok]]
            gs[rows, j] = g_small[ok]
            mags[rows, j] = q[small[ok]]
            # big branch: g = -log((b - q) / a)
            g_big = -np.log((b - q[big]) * p)
            log_g = np.log(g_big)
            ok = u2[big] <= np.exp((a - 1.0) * log_g)
            acc[big] = ok
            rows = act[big[ok]]
            gs[rows, j] = g_big[ok]
            mags[rows, j] = np.exp(a * log_g[ok])
            act = act[~acc]
    e = -np.log(u01_v(bases, n + 1, 0))
    s = gs.sum(axis=1) + e
    denom = s**a
    signs = np.empty((m, n))
    for j in range(n):
        signs[:, j] = np.where(u01_v(bases, n, j) < 0.5, -1.0, 1.0)
    return signs * mags / denom[:, None]


def sample_pball(dim, p, count, seed, *, index_offset=0):
    """count uniform points in the unit p-ball (sample indices offset..)."""
    indices = np.arange(index_offset, index_offset + count, dtype=np.uint64)
    return _sample_pball_indices(dim, p, seed, indices)


# ---------------------------------------------------------------------------
# rejection sampling from the bounding cube
# ---------------------------------------------------------------------------


def _sample_reject_indices(body, seed, indices):
    radius = bounding_radius(body, PRIMAL)
    n = body.dim
    count = indices.shape[0]
    out = np.empty((count, n))
    bases = sample_bases_v(seed, indices)
    remaining = np.arange(count)
    k = 0
    tried = 0
    accepted = 0
    while remaining.size:
        act = remaining.size
        rounds = max(1, min(4096 // act, 4096))
        ks = np.arange(k, k + rounds, dtype=np.uint64)
        k += rounds
        cand = np.empty((act, rounds, n))
        rem_bases = bases[remaining][:, None]
        for j in range(n):
            cand[:, :, j] = (2.0 * u01_v(rem_bases, j, ks[None, :]) - 1.0) * radius
        ok = membership_batch(body, PRIMAL, cand.reshape(act * rounds, n))
        ok = ok.reshape(act, rounds)
        hit = ok.any(axis=1)
        first = ok.argmax(axis=1)
        rows = np.nonzero(hit)[0]
        out[remaining[rows]] = cand[rows, first[rows]]
        tried += act * rounds
        accepted += rows.size
        remaining = remaining[~hit]
        if remaining.size and tried >= _ENVELOPE_BUDGET:
            rate = accepted / tried
            if rate < _MIN_ACCEPTANCE:
                raise EnvelopeError(
                    f"rejection acceptance rate {rate:.3e} after {tried} candidates "
                    f"(cube half-width {radius:.6g}); the bounding cube is too loose "
                    f"for this body -- rescale it toward the unit ball first"
                )
    return out


def sample_body(body, side, count, seed, *, index_offset=0):
    """count uniform points in the requested side of the body."""
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    resolved = resolve_side(body, side)
    indices = np.arange(index_offset, index_offset + count, dtype=np.uint64)
    return _dispatch_sample(resolved, seed, indices)


def _dispatch_sample(resolved, seed, indices):
    if isinstance(resolved, PBall):
        return _sample_pball_indices(resolved.dim, resolved.p, seed, indices)
    if isinstance(resolved, Interval):
        return _sample_pball_indices(1, np.inf, seed, indices)
    return _sample_reject_indices(resolved, seed, indices)


# ---------------------------------------------------------------------------
# the estimator
# ---------------------------------------------------------------------------


def estimate_phi(body, samples, seed) -> MCEstimate:
    """Plain Monte Carlo for the normalized second moment of <x, y>.

    Pair i draws x from the body at sample index 2i and y from its polar at
    sample index 2i + 1; the estimate is the mean of <x, y>^2 with standard
    error std / sqrt(samples) (ddof=1), summed in fixed pairwise order.
    """
    if samples < 2:
        raise DomainError(f"need at least 2 samples, got {samples}")
    primal = resolve_side(body, PRIMAL)
    polar = polar_body(primal)
    idx = np.arange(samples, dtype=np.uint64)
    xs = _dispatch_sample(primal, seed, 2 * idx)
    ys = _dispatch_sample(polar, seed, 2 * idx + 1)
    vals = np.einsum("ij,ij->i", xs, ys) ** 2
    est = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(samples))
    return MCEstimate(estimate=est, stderr=stderr, samples=int(samples), seed=int(seed))
