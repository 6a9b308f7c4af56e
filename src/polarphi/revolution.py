"""Revolution bodies: profiles, their polars, exact moments, and the phi split.

A revolution body K in R^n is described by an even concave radial profile
r on [-1, 1] with r(0) = 1: K = {(t, y) in R x R^{n-1} : |y|_2 <= r(t)}.
Its polar is again a revolution body, and phi(K) reduces to six
one-dimensional moments

    m0 = Int r^{n-1},  m2 = Int t^2 r^{n-1},  m+ = Int r^{n+1}

of the two profiles:

    phi(K) = (m2_1 / m0_1)(m2_2 / m0_2)
           + (m+_1 m+_2 / (m0_1 m0_2)) * phi(B_2^{n-1}),

the first summand being the axis contribution and the second the
cross-sectional one (the mixed term integrates to zero by symmetry).

Every step is an exact rule; nothing is searched and nothing adapts.

* Named profiles are x_P products.  "pball:P" is [-1, 1] x_P B_2^{n-1},
  with r(t) = (1 - |t|^P)^{1/P}; "ball", "cone" and "cylinder" are the cases
  P = 2, 1 and inf.  The polar of [-1, 1] x_P B_2^{n-1} is
  [-1, 1] x_Q B_2^{n-1} with 1/P + 1/Q = 1, so the polar of a named profile
  is the named profile with the dual exponent.  Its moments are Beta
  functions (substitute u = |t|^P):

      m0 = (2/P) B(1/P, (n-1)/P + 1),  m2 = (2/P) B(3/P, (n-1)/P + 1),
      m+ = (2/P) B(1/P, (n+1)/P + 1),  and (2, 2/3, 2) at P = inf.

* Grid polars are grids.  The section {|y| <= r(t)} is a polygon.  Each edge
  of its upper boundary lies on a line a t + b y = 1, and (a, b) is a vertex
  of the polar section; a flat end, r(+-1) > 0, is the edge t = +-1 and adds
  the vertex (+-1, 0).  Knots that are not strict corners (collinear primal
  edges give equal knots) are merged, so the polar is an ordinary grid
  profile, and the polar of the polar is the profile without such knots.

* Grid moments are exact.  On each linear segment the three integrands are
  polynomials of degree <= n + 1, which Gauss-Legendre with ceil((n + 2)/2)
  nodes per segment integrates exactly up to rounding.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, VerificationError
from .exact import dual_exponent, pball_volume, phi_pball
from .specfun import log_beta

_NAMED_EXPONENT = {"ball": 2.0, "cone": 1.0, "cylinder": math.inf}
_NAMED_POLAR = {"ball": "ball", "cone": "cylinder", "cylinder": "cone"}


@dataclass(frozen=True)
class RevolutionProfile:
    """Even concave radial profile on [-1, 1] with r(0) = 1.

    kind is "grid" for a validated piecewise-linear profile (knots = (k, 2)
    array of (t, r) pairs), or one of the named x_P profiles "ball", "cone",
    "cylinder" and "pball" (exponent param >= 1).
    """

    kind: str
    param: float = 0.0
    knots: object = None

    @property
    def exponent(self) -> float:
        """P of a named profile, which is [-1, 1] x_P B_2^{n-1}."""
        return _NAMED_EXPONENT.get(self.kind, self.param)

    def values(self, t) -> np.ndarray:
        """Profile values at the given axis coordinates."""
        return _NP_EVAL(self, np.atleast_1d(np.asarray(t, dtype=np.float64)))


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


# The one profile evaluator.  Its name is the hook of the per-layer trace
# (perfbench/spans.py), which counts the points it evaluates.
def _NP_EVAL(profile, t):
    if profile.kind == "grid":
        return np.interp(t, profile.knots[:, 0], profile.knots[:, 1])
    P = profile.exponent
    if math.isinf(P):
        return np.ones_like(t)
    return np.maximum(0.0, 1.0 - np.abs(t) ** P) ** (1.0 / P)


# ---------------------------------------------------------------------------
# profile construction and validation
# ---------------------------------------------------------------------------


def _validate_grid(pairs) -> np.ndarray:
    try:
        knots = np.asarray(pairs, dtype=np.float64)
    except (TypeError, ValueError):  # ragged, or not numbers
        knots = np.empty(0)
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
        if name in _NAMED_EXPONENT:
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
    """Canonical description of a profile; parse_profile reads it back."""
    if profile.kind == "grid":
        return {"grid": [[float(a), float(b)] for a, b in profile.knots]}
    if profile.kind == "pball":
        return f"pball:{profile.param!r}"
    return profile.kind


def _polar_knots(knots: np.ndarray) -> np.ndarray:
    """Knots of the polar grid: one per edge line a t + b y = 1 of the section.

    Only the half t >= 0 is computed, from (0, 1) and the knots with t > 0;
    the half s <= 0 is its mirror image, so the polar is even and has
    r(0) = 1 exactly however the input rounds within its tolerances.
    """
    half = knots[knots[:, 0] > 0.0]
    t = np.concatenate([[0.0], half[:, 0]])
    r = np.concatenate([[1.0], half[:, 1]])
    dt, dr = np.diff(t), np.diff(r)
    det = t[:-1] * dr - r[:-1] * dt  # nonzero: every edge line misses 0
    verts = np.stack([dr / det, -dt / det], axis=1)
    if r[-1] > 0.0 and verts[-1, 0] < 1.0:  # an end radius below ~1e-16 already gives s = 1
        verts = np.vstack([verts, [1.0, 0.0]])
    hull = []
    for s, b in verts + 0.0:  # + 0.0 turns -0.0 into 0.0
        if hull and abs(s - hull[-1][0]) + abs(b - hull[-1][1]) <= 1e-12:
            continue  # equal knots, from collinear edges, up to rounding
        while len(hull) > 1:
            (s0, b0), (s1, b1) = hull[-2:]
            if (s1 - s0) * (b - b0) < (b1 - b0) * (s - s0):
                break  # the boundary turns clockwise at hull[-1]: a corner
            hull.pop()
        hull.append((s, b))
    polar = np.array(hull)
    polar[-1, 0] = 1.0  # s = 1 up to rounding, or an equal knot was kept
    if polar[0, 0] <= 0.0:  # a flat top (or r slightly above 1 near 0): one knot (0, 1)
        polar[0, 0] = 0.0
        return np.vstack([polar[:0:-1] * [-1.0, 1.0], polar])
    return np.vstack([polar[::-1] * [-1.0, 1.0], polar])


def polar_profile(profile: RevolutionProfile) -> RevolutionProfile:
    """The polar body's profile: the dual named profile, or the polar grid."""
    if not isinstance(profile, RevolutionProfile):
        raise DomainError("polar_profile expects a RevolutionProfile")
    if profile.kind == "grid":
        return RevolutionProfile(kind="grid", knots=_polar_knots(profile.knots))
    if profile.kind in _NAMED_POLAR:
        return RevolutionProfile(kind=_NAMED_POLAR[profile.kind])
    q = dual_exponent(profile.param).q
    if math.isinf(q):
        return RevolutionProfile(kind="cylinder")
    return RevolutionProfile(kind="pball", param=q)


# ---------------------------------------------------------------------------
# exact moments
# ---------------------------------------------------------------------------


def _gauss_legendre(m: int):
    """Nodes and weights of the m-point Gauss-Legendre rule on [-1, 1].

    Newton steps on P_m (three-term recurrence) from the asymptotic guess
    cos(pi (i + 3/4) / (m + 1/2)), which is within O(1/m^2) of the roots, so
    eight quadratically converging steps reach full precision.  An
    eigen-solver would give the same rule, but its first call sets up about
    7 MB of LAPACK workspace.
    """
    x = np.cos(np.pi * (np.arange(m) + 0.75) / (m + 0.5))
    for _ in range(8):
        p0, p1 = np.ones_like(x), x
        for k in range(2, m + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = m * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def profile_integrals(profile: RevolutionProfile, n: int):
    """(m0, m2, m+) = (Int r^{n-1}, Int t^2 r^{n-1}, Int r^{n+1}) over [-1, 1].

    Beta functions for named profiles; for grids, Gauss-Legendre on each
    linear segment with enough nodes to be exact for degree n + 1.
    """
    if n < 2:
        raise DomainError(f"revolution bodies need dimension >= 2, got {n}")
    if profile.kind != "grid":
        P = profile.exponent
        if math.isinf(P):
            return 2.0, 2.0 / 3.0, 2.0
        c = math.log(2.0 / P)
        return (
            math.exp(c + log_beta(1.0 / P, (n - 1) / P + 1.0)),
            math.exp(c + log_beta(3.0 / P, (n - 1) / P + 1.0)),
            math.exp(c + log_beta(1.0 / P, (n + 1) / P + 1.0)),
        )
    x, w = _gauss_legendre((n + 3) // 2)
    kt = profile.knots[:, 0]
    hw = 0.5 * np.diff(kt)[:, None]
    ts = 0.5 * (kt[:-1] + kt[1:])[:, None] + hw * x
    r = _NP_EVAL(profile, ts)
    f0 = (hw * w) * r ** (n - 1)
    return float(f0.sum()), float((ts * ts * f0).sum()), float((f0 * r * r).sum())


# ---------------------------------------------------------------------------
# phi decomposition
# ---------------------------------------------------------------------------


def phi_revolution(profile: RevolutionProfile, n: int) -> RevolutionReport:
    """phi of the revolution body with the given profile in dimension n >= 2.

    Four bounds are judged, and a violation is raised, not reported: the
    second summand is at most phi(B_2^{n-1}), santalo_ratio <= 1, phi is at
    most the ball's n/(n+2)^2 (the conjecture), and the section-moment
    window.  The 1-D marginal of the volume-normalized body along the axis
    is a symmetric log-concave density (r^{n-1} is log-concave since r is
    concave), so f(0)^2 sigma^2 must land in [1/12, 1/2] (Hensley); the
    cube attains the left endpoint.
    """
    m0_1, m2_1, mp_1 = profile_integrals(profile, n)
    m0_2, m2_2, mp_2 = profile_integrals(polar_profile(profile), n)
    phi_slice = phi_pball(n - 1, 2.0).phi
    first = (m2_1 / m0_1) * (m2_2 / m0_2)
    second = (mp_1 * mp_2) / (m0_1 * m0_2) * phi_slice
    phi = first + second

    vol_slice = pball_volume(n - 1, 2.0)
    santalo_ratio = (vol_slice * m0_1) * (vol_slice * m0_2) / pball_volume(n, 2.0) ** 2
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
            "the polar profile or the moments are wrong"
        )
    conjecture_cap = n / (n + 2.0) ** 2
    if phi > conjecture_cap + 1e-9:
        raise VerificationError(
            f"phi = {phi!r} exceeds the euclidean-ball value {conjecture_cap!r} "
            f"at dimension {n}: this would contradict the ellipsoid-maximality "
            "conjecture -- inspect the profile and the moments before "
            "trusting anything downstream"
        )
    if not (1.0 / 12.0 - 1e-9 <= hensley <= 0.5 + 1e-9):
        raise VerificationError(
            f"section-moment product {hensley!r} escapes [1/12, 1/2]: impossible "
            "for a log-concave marginal, so the moments are inconsistent"
        )
    return report


# the name the revolution command calls; perfbench/spans.py times that call
decomposition_report = phi_revolution
