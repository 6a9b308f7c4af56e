"""Revolution bodies: polar profiles, moment quadrature, and the phi split.

A revolution body K in R^n is described by an even concave radial profile
r1 on [-1, 1] with r1(0) = 1: K = {(t, y) in R x R^{n-1} : |y|_2 <= r1(t)}.
Its polar is again a revolution body, with profile

    r2(s) = min over t in [-1, 1], r1(t) > 0, of (1 - t s) / r1(t),

a quasi-convex envelope minimization solved here by golden section.  phi(K)
then reduces to six one-dimensional moments

    m0 = Int r^{n-1},  m2 = Int t^2 r^{n-1},  m+ = Int r^{n+1}

of the two profiles:

    phi(K) = (m2_1 / m0_1)(m2_2 / m0_2)
           + (m+_1 m+_2 / (m0_1 m0_2)) * phi(B_2^{n-1}),

the first summand being the axis contribution and the second the
cross-sectional one (the mixed term integrates to zero by symmetry).

Implementation notes.

* Golden section runs over u in [0, 1] with t = 1 - u^2, exploiting evenness
  (for s >= 0 the minimizer has t >= 0).  The substitution is the point:
  profiles with infinite slope at t = 1 (the ball) give the objective a
  square-root cusp at an endpoint minimizer, which costs half the bracket
  accuracy (~1e-7); in u the cusp is linearized and the minimum value comes
  out to ~1e-13.  The one residual artifact: at |s| = 1 exactly, 1 - u*u
  rounds to 1.0 for u below ~1.5e-8, flooring r2(1) at ~7e-9 instead of 0
  for such profiles.  Harmless everywhere (the moment integrands vanish
  there), visible only in sup-norm comparisons against closed forms.

* 64 iterations shrink the bracket to 2 * 0.618^64 ~ 8e-14 < 1e-12.

* Moments use adaptive Gauss-Kronrod (G7, K15) bisection to absolute
  tolerance 1e-11 per moment, with initial splits at t = 0 and at grid knots
  (cone-type profiles have corners exactly there).  One profile evaluation
  per node serves all three integrands.

* Profile evaluators are vectorized over nodes: golden section runs on all
  nodes at once, one bracket per node.
"""

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, VerificationError
from .exact import phi_pball

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = 1.0 - _INVPHI
_GOLDEN_ITERS = 64
_BIG = 1e300

_KIND_CODES = {"ball": 0, "cylinder": 1, "cone": 2, "pball": 3, "grid": 4}
_MAX_POLAR_DEPTH = 2

DEFAULT_ABS_TOL = 1e-11
DEFAULT_MAX_INTERVALS = 4000

_EMPTY = np.empty(0, dtype=np.float64)


@dataclass(frozen=True)
class RevolutionProfile:
    """Even concave radial profile on [-1, 1] with r(0) = 1.

    kind is one of the named analytic profiles ("ball", "cylinder", "cone",
    "pball" with exponent param >= 1), "grid" for a validated piecewise-linear
    profile (knots = (k, 2) array of (t, r) pairs), or "polar" wrapping an
    inner profile with the envelope minimization.
    """

    kind: str
    param: float = 0.0
    knots: object = None
    inner: object = None

    @property
    def depth(self) -> int:
        d, p = 0, self
        while p.kind == "polar":
            d += 1
            p = p.inner
        return d

    def _base(self) -> "RevolutionProfile":
        p = self
        while p.kind == "polar":
            p = p.inner
        return p

    def _data(self):
        base = self._base()
        if base.kind == "grid":
            return (
                _KIND_CODES["grid"],
                0.0,
                base.knots[:, 0].copy(),
                base.knots[:, 1].copy(),
            )
        return (_KIND_CODES[base.kind], float(base.param), _EMPTY, _EMPTY)

    def values(self, t) -> np.ndarray:
        """Profile values at the given axis coordinates."""
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        kind, param, kt, kr = self._data()
        return _NP_EVAL[self.depth](kind, param, kt, kr, t)

    def value(self, t: float) -> float:
        return float(self.values(np.array([t], dtype=np.float64))[0])


@dataclass
class RevolutionReport:
    """phi decomposition and diagnostics for one revolution body.

    second_summand_bound = phi(B_2^{n-1}) = (n-1)/(n+1)^2: the second summand
    can never exceed it because r^{n+1} <= r^{n-1} pointwise (r <= 1).
    hensley_product_sq is |K' cap e1-perp|^2 * Int_{K'} t^2 for the
    volume-normalized body K', which collapses to m2_1 / m0_1^3; the
    section-moment inequality confines it to [1/12, 1/2] (the cube attains
    1/12).  santalo_ratio = |K||K deg|/|B_2^n|^2 <= 1.
    """

    dim: int
    phi: float
    first_summand: float
    second_summand: float
    second_summand_bound: float
    hensley_product_sq: float
    santalo_ratio: float
    extras: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# profile evaluation kernels
# ---------------------------------------------------------------------------


def _r_base_np(kind, param, kt, kr, t):
    at = np.abs(t)
    if kind == 0:
        return np.sqrt(np.maximum(0.0, 1.0 - t * t))
    if kind == 1:
        return np.ones_like(at)
    if kind == 2:
        return 1.0 - at
    if kind == 3:
        return np.maximum(0.0, 1.0 - at**param) ** (1.0 / param)
    return np.interp(t, kt, kr)


def _polar_np_factory(inner):
    def ev(kind, param, kt, kr, s):
        s = np.abs(s)
        a = np.zeros(s.shape)
        b = np.ones(s.shape)

        def obj(u):
            t = 1.0 - u * u
            r = inner(kind, param, kt, kr, t)
            safe = np.where(r > 0.0, r, 1.0)
            return np.where(r > 0.0, (1.0 - t * s) / safe, _BIG)

        c = a + _INVPHI2 * (b - a)
        d = a + _INVPHI * (b - a)
        fc = obj(c)
        fd = obj(d)
        for _ in range(_GOLDEN_ITERS):
            left = fc < fd
            b = np.where(left, d, b)
            a = np.where(left, a, c)
            c_old, fc_old, fd_old = c, fc, fd
            c = np.where(left, a + _INVPHI2 * (b - a), d)
            d = np.where(left, c_old, a + _INVPHI * (b - a))
            oc = obj(c)
            od = obj(d)
            fc = np.where(left, oc, fd_old)
            fd = np.where(left, fc_old, od)
        return np.minimum(fc, fd)

    return ev


_NP_EVAL = (
    _r_base_np,
    _polar_np_factory(_r_base_np),
    _polar_np_factory(_polar_np_factory(_r_base_np)),
)


# ---------------------------------------------------------------------------
# profile construction and validation
# ---------------------------------------------------------------------------


def _validate_grid(pairs) -> np.ndarray:
    knots = np.asarray(pairs, dtype=np.float64)
    if knots.ndim != 2 or knots.shape[1] != 2 or knots.shape[0] < 2:
        raise DomainError("grid profile must be a list of [t, r] pairs")
    t = knots[:, 0]
    r = knots[:, 1]
    if not np.all(np.isfinite(knots)):
        raise DomainError("grid profile contains non-finite entries")
    if np.any(np.diff(t) <= 0.0):
        raise DomainError("grid profile t values must be strictly increasing")
    if abs(t[0] + 1.0) > 1e-12 or abs(t[-1] - 1.0) > 1e-12:
        raise DomainError("grid profile must span [-1, 1] exactly")
    t[0], t[-1] = -1.0, 1.0
    if np.any(r < 0.0):
        raise DomainError("grid profile radii must be nonnegative")
    at0 = float(np.interp(0.0, t, r))
    if abs(at0 - 1.0) > 1e-12:
        raise DomainError(
            f"profile must satisfy r(0) = 1 (got r(0) = {at0!r}); "
            f"rescale the radii by 1/{at0!r}"
        )
    # evenness: piecewise-linear r(t) and r(-t) agree iff they agree on the
    # union of reflected knot positions
    for u in np.abs(t):
        left = float(np.interp(-u, t, r))
        right = float(np.interp(u, t, r))
        if abs(left - right) > 1e-12:
            raise DomainError(
                f"profile must be even: r({-u}) = {left!r} != r({u}) = {right!r} "
                "(non-even input is rejected, not symmetrized)"
            )
    # concavity: chord slopes nonincreasing (second differences <= 1e-12)
    slopes = np.diff(r) / np.diff(t)
    if np.any(np.diff(slopes) > 1e-12):
        raise DomainError("grid profile must be concave (slopes must not increase)")
    return knots


def parse_profile(value) -> RevolutionProfile:
    """Profile from its description: a named string, "pball:P", or {"grid": ...}."""
    if isinstance(value, str):
        name = value.strip()
        if name in ("ball", "cylinder", "cone"):
            return RevolutionProfile(kind=name)
        if name.startswith("pball:"):
            try:
                P = float(name.split(":", 1)[1])
            except ValueError:
                raise DomainError(f"malformed pball profile exponent in {value!r}")
            if not math.isfinite(P) or P < 1.0:
                raise DomainError(
                    f"pball profile exponent must be a finite real >= 1, got {P!r}"
                )
            return RevolutionProfile(kind="pball", param=P)
        raise DomainError(f"unknown profile {value!r}")
    if isinstance(value, dict) and set(value.keys()) == {"grid"}:
        return RevolutionProfile(kind="grid", knots=_validate_grid(value["grid"]))
    raise DomainError(f"profile must be a name or a grid object, got {value!r}")


def profile_to_json(profile: RevolutionProfile):
    """Canonical description of a parseable profile (polar wrappers have none)."""
    if profile.kind in ("ball", "cylinder", "cone"):
        return profile.kind
    if profile.kind == "pball":
        return f"pball:{profile.param!r}"
    if profile.kind == "grid":
        return {"grid": [[float(a), float(b)] for a, b in profile.knots]}
    raise DomainError("polar-wrapped profiles have no serialized form")


def polar_profile(profile: RevolutionProfile) -> RevolutionProfile:
    """The polar body's profile, as an envelope-minimization evaluator.

    Always computed numerically, even for named profiles whose polars have
    closed forms -- those serve as test oracles for this very routine.
    """
    if not isinstance(profile, RevolutionProfile):
        raise DomainError("polar_profile expects a RevolutionProfile")
    if profile.depth >= _MAX_POLAR_DEPTH:
        raise DomainError(
            "polar nesting is supported up to depth 2 (polar of polar)"
        )
    return RevolutionProfile(kind="polar", inner=profile)


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod moments
# ---------------------------------------------------------------------------

_XGK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
    ]
)
_WGK0 = 0.209482141084728
_WG = np.array([0.129484966168870, 0.279705391489277, 0.381830050505119])
_WG0 = 0.417959183673469

_NODES = np.concatenate([-_XGK, [0.0], _XGK[::-1]])
_WK15 = np.concatenate([_WGK, [_WGK0], _WGK[::-1]])
_WG7 = np.zeros(15)
_WG7[1:7:2] = _WG
_WG7[7] = _WG0
_WG7[9:15:2] = _WG[::-1]


def _initial_cuts(profile: RevolutionProfile) -> np.ndarray:
    cuts = {-1.0, 0.0, 1.0}
    base = profile._base()
    if base.kind == "grid" and profile.depth == 0:
        cuts.update(float(t) for t in base.knots[:, 0])
    return np.array(sorted(cuts))


def profile_integrals(
    profile: RevolutionProfile,
    n: int,
    *,
    abs_tol: float = DEFAULT_ABS_TOL,
    max_intervals: int = DEFAULT_MAX_INTERVALS,
):
    """(m0, m2, m+) = (Int r^{n-1}, Int t^2 r^{n-1}, Int r^{n+1}) over [-1, 1].

    Adaptive G7/K15 bisection, each moment to absolute tolerance abs_tol.
    One profile evaluation per node feeds all three integrands.  Raises
    ConvergenceError (with the achieved error) if the interval budget runs
    out before the tolerance is met.
    """
    if n < 2:
        raise DomainError(f"revolution bodies need dimension >= 2, got {n}")
    kind, param, kt, kr = profile._data()
    batch = _NP_EVAL[profile.depth]

    def gk(lo, hi):
        mid = 0.5 * (lo + hi)
        hw = 0.5 * (hi - lo)
        ts = mid + hw * _NODES
        r = batch(kind, param, kt, kr, ts)
        f0 = r ** (n - 1)
        rows = np.stack([f0, ts * ts * f0, f0 * r * r])
        resk = hw * (rows @ _WK15)
        resg = hw * (rows @ _WG7)
        return resk, np.abs(resk - resg)

    cuts = _initial_cuts(profile)
    heap = []
    serial = 0  # tiebreaker: ndarray entries must never be compared
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        resk, err = gk(lo, hi)
        heapq.heappush(heap, (-err.max(), serial, lo, hi, resk, err))
        serial += 1
    while True:
        total_err = np.sum([item[5] for item in heap], axis=0)
        if np.all(total_err < abs_tol):
            break
        if serial >= max_intervals:
            raise ConvergenceError(
                f"moment quadrature stalled: achieved tolerance {total_err.max():.3e} "
                f"(target {abs_tol:.3e}) after {serial} intervals"
            )
        _, _, lo, hi, _, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for a, b in ((lo, mid), (mid, hi)):
            resk, err = gk(a, b)
            heapq.heappush(heap, (-err.max(), serial, a, b, resk, err))
            serial += 1
    total = np.sum([item[4] for item in heap], axis=0)
    return float(total[0]), float(total[1]), float(total[2])


# ---------------------------------------------------------------------------
# phi decomposition
# ---------------------------------------------------------------------------


def _build_report(profile, n, abs_tol, max_intervals) -> RevolutionReport:
    m0_1, m2_1, mp_1 = profile_integrals(
        profile, n, abs_tol=abs_tol, max_intervals=max_intervals
    )
    r2 = polar_profile(profile)
    m0_2, m2_2, mp_2 = profile_integrals(
        r2, n, abs_tol=abs_tol, max_intervals=max_intervals
    )
    phi_slice = phi_pball(n - 1, 2.0).phi if n >= 2 else 0.0
    first = (m2_1 / m0_1) * (m2_2 / m0_2)
    second = (mp_1 * mp_2) / (m0_1 * m0_2) * phi_slice
    phi = first + second

    vol_slice = phi_pball(max(n - 1, 1), 2.0).volume if n >= 2 else 1.0
    vol_ball_n = phi_pball(n, 2.0).volume
    santalo_ratio = (vol_slice * m0_1) * (vol_slice * m0_2) / vol_ball_n**2
    hensley = m2_1 / m0_1**3

    report = RevolutionReport(
        dim=n,
        phi=phi,
        first_summand=first,
        second_summand=second,
        second_summand_bound=phi_slice,
        hensley_product_sq=hensley,
        santalo_ratio=santalo_ratio,
        extras={
            "scaled_phi": n * phi,  # conjectured ~ c/n: n*phi should stay O(1)
            "scaled_first_summand": n * n * first,
            "moments": (m0_1, m2_1, mp_1, m0_2, m2_2, mp_2),
        },
    )
    if second > phi_slice + 1e-10:
        raise VerificationError(
            f"second summand {second!r} exceeds its proved bound {phi_slice!r}"
        )
    if santalo_ratio > 1.0 + 1e-9:
        raise VerificationError(
            f"volume-product ratio {santalo_ratio!r} exceeds 1: "
            "the polar envelope or the moments are wrong"
        )
    conjecture_cap = n / (n + 2.0) ** 2
    if phi > conjecture_cap + 1e-9:
        raise VerificationError(
            f"phi = {phi!r} exceeds the euclidean-ball value {conjecture_cap!r} "
            f"at dimension {n}: this would contradict the ellipsoid-maximality "
            "conjecture -- inspect the profile and the quadrature before "
            "trusting anything downstream"
        )
    return report


def phi_revolution(
    profile: RevolutionProfile,
    n: int,
    *,
    abs_tol: float = DEFAULT_ABS_TOL,
    max_intervals: int = DEFAULT_MAX_INTERVALS,
) -> RevolutionReport:
    """phi of the revolution body with the given profile in dimension n >= 2."""
    return _build_report(profile, n, abs_tol, max_intervals)


def decomposition_report(
    profile: RevolutionProfile,
    n: int,
    *,
    abs_tol: float = DEFAULT_ABS_TOL,
    max_intervals: int = DEFAULT_MAX_INTERVALS,
) -> RevolutionReport:
    """phi_revolution plus the two-sided section-moment window assertion.

    The 1-D marginal of the volume-normalized body along the axis is a
    symmetric log-concave density (r^{n-1} is log-concave since r is concave),
    so f(0)^2 sigma^2 must land in [1/12, 1/2]; the cube attains the left
    endpoint.  A violation is raised, not reported.
    """
    report = _build_report(profile, n, abs_tol, max_intervals)
    h = report.hensley_product_sq
    if not (1.0 / 12.0 - 1e-9 <= h <= 0.5 + 1e-9):
        raise VerificationError(
            f"section-moment product {h!r} escapes [1/12, 1/2]: impossible for "
            "a log-concave marginal, so the moments are inconsistent"
        )
    return report
