"""Closed-form evaluation of the polar second-moment functional for p-balls.

For a symmetric convex body K with polar K°, the functional of interest is

    phi(K) = (1 / (|K| |K°|)) * Int_K Int_K° <x,y>^2 dy dx,

i.e. the mean squared pairing of independent uniform points drawn from K and
K°.  For the unit p-ball B_p^n (and its dual q-ball, 1/p + 1/q = 1) everything
reduces to Gamma-function ratios, because B_p^n splits as the p-product
B_p^{n-1} x_p [-1,1] and both volume and the pairing integral propagate
through p-products in closed form.

Two independent evaluation routes are implemented, both valid on all of
1 <= p <= inf:

* :func:`phi_pball` runs the paper's one-term-per-dimension recursion

      phi_1 = 1/9,   phi_k = f(k-1, k, p) phi_{k-1} + f(1, k, p) / 9,

  where :func:`f_factor` is the product-combination coefficient

      f(y1, y2, p) = [ (y1+2)^2 y2^2  G((y1+2)/p) G((y1+2)/q) G(y2/p) G(y2/q) ]
                     / [ y1^2 (y2+2)^2 G((y2+2)/p) G((y2+2)/q) G(y1/p) G(y1/q) ]

  (G = Gamma), with the p in {1, inf} limit collapsing to
  (y1+1)(y1+2) / ((y2+1)(y2+2)).  Every Gamma argument the recursion
  meets is j/p or j/q for an integer 1 <= j <= n+2, so phi_pball tables
  those 2(n+2) log-gammas once and runs the recursion by lookup, O(n)
  arithmetic on top.  f_factor sums the same log-f expression in the same
  order, so phi is bit-identical to calling f_factor at every step.

* :func:`phi_via_moments` evaluates the product form

      phi(B_p^n) = n R(n, p) R(n, q),   R(n, p) = E x_1^2 over B_p^n
                 = B(3/p, a) / B(1/p, a),   a = (n-1)/p + 1,

  with R(n, inf) = 1/3: both bodies are 1-unconditional, so the pairing
  integral keeps only its n diagonal terms.

The two phi values share only the log-gamma kernel, so their agreement
(checked to 1e-10 relative in the test suite) is a meaningful
cross-validation.  Both routes report the logarithms of the volumes of the
one closed form |B_p^n| = 2^n Gamma(1 + 1/p)^n / Gamma(1 + n/p).

All Gamma ratios are evaluated in log space, and the records keep volumes as
logs: |B_1^n| is subnormal from n = 197 and 2^n overflows from n = 1,025,
while their logs stay modest.
"""

import math
import operator
import re
import sys
from dataclasses import dataclass

from .errors import DomainError
from .specfun import log_beta, log_gamma

PHI_INTERVAL = 1.0 / 9.0  # phi([-1,1]): (1/4) * (Int_{-1}^{1} t^2 dt)^2

# f_factor's domain bound on y2.  Its log-space sum cancels terms of size
# y2 ln y2, so the relative error grows about like 1e-16 y2 ln y2: 4e-11 at
# 1e4 against 60-digit mpmath, 1.6e-7 at 1e8, and the sum overflows by 1e200.
# Every caller in this repository stays at y2 <= 200.
F_FACTOR_Y2_MAX = 1e4

# phi_pball's domain bound on n.  Its recursion's rounding grows with n: the
# worst relative error against 50-digit mpmath over p in {1 .. 1e6, inf} is
# 1.8e-12 at n = 200 and 3.2e-11 at 1,000.  phi_via_moments takes the same
# bound (3.1e-13 at 1,000), so both routes of `phi exact` answer alike.
PHI_PBALL_DIM_MAX = 1000

# decimal text as float reads it, without the digit-group underscores and
# non-ASCII digits that float also takes ("1_5" would read as 15)
_DECIMAL = re.compile(
    r"\s*[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf(?:inity)?)\s*", re.IGNORECASE
)


def _check_p(p) -> float:
    """The one rule on an exponent: a number but a bool, or decimal text
    ("1.5", "inf"), in [1, inf]."""
    try:
        # a NumPy bool, told by its dtype without importing NumPy
        if isinstance(p, bool) or getattr(getattr(p, "dtype", None), "kind", "") == "b":
            raise TypeError(p)
        if isinstance(p, str) and not _DECIMAL.fullmatch(p):
            raise ValueError(p)
        v = float(p)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"p must be a number or decimal text such as '1.5' or 'inf', got {p!r}")
    if math.isnan(v) or v < 1.0:
        raise DomainError(f"p must lie in [1, inf], got {p!r}")
    return v


def _p_to_json(p: float):
    """An exponent as reports print it: "inf", or the float."""
    return "inf" if math.isinf(p) else float(p)


def _check_dim(n, cap=math.inf, *, low=1, what="dimension") -> int:
    """A dimension, or the count what names: any integer type but bool, in [low, cap]."""
    try:
        if isinstance(n, bool):
            raise TypeError(n)
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {n!r}")
    if n < low:
        raise DomainError(f"{what} must be >= {low}, got {n}")
    if n > cap:
        raise DomainError(f"{what} must be <= {cap}, got {n}")
    return n


@dataclass(frozen=True)
class ExponentPair:
    """A Holder-dual pair (p, q) with 1/p + 1/q = 1; 1 and inf are dual."""

    p: float
    q: float


@dataclass(frozen=True)
class PhiBreakdown:
    """Exact evaluation record for one body: phi and ln |K|, ln |K°|.

    The pairing integral Int_K Int_K° <x,y>^2 is phi |K| |K°|.
    """

    dim: int
    phi: float
    log_volume: float
    log_polar_volume: float


@dataclass(frozen=True)
class IsotropyReport:
    """The Blaschke-Santalo chain's numbers for one p-ball.

    phi is phi(B_p^n) by the f-factor recursion (phi_pball) and
    log_santalo_product is ln(|K| |K°|).  lower_bound is the 1-unconditional
    identity phi = n |K|^{2/n} |K°|^{2/n} L_K^2 L_{K°}^2 with both isotropy
    constants replaced by the euclidean ball's (the minimizer), so it chains
    below phi and above the Santalo-normalized volume-product bound.
    """

    dim: int
    p: float
    phi: float
    log_santalo_product: float
    lower_bound: float


def dual_exponent(p) -> ExponentPair:
    """The dual pair (p, q): 1/p + 1/q = 1, with 1 <-> inf and 2 self-dual."""
    p = _check_p(p)
    if p == 1.0:
        return ExponentPair(1.0, math.inf)
    if math.isinf(p):
        return ExponentPair(math.inf, 1.0)
    return ExponentPair(p, p / (p - 1.0))


def _tabled_f(pair: ExponentPair, ts):
    """f(y1, y2, p) as a function of (y1, y2), for y1, y2, y1+2, y2+2 in ts.

    The one log-f expression behind f_factor and the recursion of
    phi_pball: 2 ln t, ln Gamma(t/p) and ln Gamma(t/q) are tabled once per
    t in ts and the sum reads them in f_factor's fixed order.  At p in
    {1, inf} f is the rational limit and nothing is tabled.
    """
    p, q = pair.p, pair.q
    if p == 1.0 or math.isinf(p):
        return lambda y1, y2: (y1 + 1.0) * (y1 + 2.0) / ((y2 + 1.0) * (y2 + 2.0))
    ln2 = {t: 2.0 * math.log(t) for t in ts}
    lgp = {t: log_gamma(t / p) for t in ts}
    lgq = {t: log_gamma(t / q) for t in ts}

    def f(y1, y2):
        lf = (
            ln2[y1 + 2]
            + ln2[y2]
            - ln2[y1]
            - ln2[y2 + 2]
            + lgp[y1 + 2]
            + lgq[y1 + 2]
            + lgp[y2]
            + lgq[y2]
            - lgp[y2 + 2]
            - lgq[y2 + 2]
            - lgp[y1]
            - lgq[y1]
        )
        return math.exp(lf)

    return f


def f_factor(y1: float, y2: float, p) -> float:
    """Combination coefficient f(y1, y2, p) of the p-product formula.

    Defined for 0 < y1 < y2 <= F_FACTOR_Y2_MAX; the pairing integral of an
    (y1+y2)-dimensional p-product picks up f(y1, y1+y2, p) and
    f(y2, y1+y2, p) against the factor phis.  Evaluated in log space; the
    p in {1, inf} branch is the rational limit (y1+1)(y1+2) / ((y2+1)(y2+2)).
    """
    y1 = float(y1)
    y2 = float(y2)
    if not (0.0 < y1 < y2 <= F_FACTOR_Y2_MAX):
        raise DomainError(
            f"need 0 < y1 < y2 <= {F_FACTOR_Y2_MAX:g}, got y1={y1!r}, y2={y2!r}"
        )
    return _tabled_f(dual_exponent(p), (y1, y1 + 2.0, y2, y2 + 2.0))(y1, y2)


def _log_volume(n: int, p: float) -> float:
    """ln |B_p^n| = n ln 2 + n ln Gamma(1 + 1/p) - ln Gamma(1 + n/p)."""
    if math.isinf(p):
        return n * math.log(2.0)
    return n * math.log(2.0) + n * log_gamma(1.0 + 1.0 / p) - log_gamma(1.0 + n / p)


def _normal_exp(log_value: float, factor: float = 1.0) -> float:
    """factor e^log_value while that is a normal double, else nan."""
    try:
        v = factor * math.exp(log_value)
    except OverflowError:
        return math.nan
    return v if sys.float_info.min <= abs(v) <= sys.float_info.max else math.nan


def _exp_volume(log_value: float) -> float:
    """e^log_value, a DomainError unless it is a normal double: 2^n overflows
    from n = 1,025, and |B_1^n| is subnormal from n = 197."""
    v = _normal_exp(log_value)
    if math.isnan(v):
        raise DomainError(f"e^{log_value:.6g} is not a normal double")
    return v


def pball_volume(n: int, p) -> float:
    """|B_p^n| = 2^n Gamma(1 + 1/p)^n / Gamma(1 + n/p); 2^n for p = inf."""
    n = _check_dim(n)
    p = _check_p(p)
    return _exp_volume(_log_volume(n, p))


def _log_r(n: int, p: float) -> float:
    """ln R(n, p), R = E x_1^2 for x uniform in B_p^n; R(n, inf) = 1/3."""
    if math.isinf(p):
        return -math.log(3.0)
    a = (n - 1.0) / p + 1.0
    return log_beta(3.0 / p, a) - log_beta(1.0 / p, a)


def pball_moment2(n: int, p) -> float:
    """Int_{B_p^n} x_1^2 dx = (2/p)^n Gamma(3/p) Gamma(1/p)^{n-1} / Gamma(1+(n+2)/p).

    For p = inf: 2^n / 3.
    """
    n = _check_dim(n)
    p = _check_p(p)
    return _exp_volume(_log_volume(n, p) + _log_r(n, p))


def _breakdown(n: int, pair: ExponentPair, phi: float) -> PhiBreakdown:
    """The record of phi(B_p^n), with the logs of both closed-form volumes."""
    return PhiBreakdown(n, phi, _log_volume(n, pair.p), _log_volume(n, pair.q))


def phi_pball(n: int, p) -> PhiBreakdown:
    """phi(B_p^n) by the f-factor recursion (route one).

    phi_1 = 1/9 (the interval), then peeling one dimension per step:
    phi_k = f(k-1, k, p) phi_{k-1} + f(1, k, p) / 9.  At p = 2 this collapses
    algebraically to n/(n+2)^2.

    Cost: 2(n+2) log-gammas, ln Gamma(j/p) and ln Gamma(j/q) for
    j = 1..n+2 tabled once with 2 ln j (none at p in {1, inf}), plus O(n)
    arithmetic.  The terms are summed in f_factor's order, so phi is
    bit-identical to running the recursion with f_factor at every step.
    Defined for n <= PHI_PBALL_DIM_MAX.
    """
    n = _check_dim(n, PHI_PBALL_DIM_MAX)
    pair = dual_exponent(p)
    f = _tabled_f(pair, range(1, n + 3))
    phi = PHI_INTERVAL
    for k in range(2, n + 1):
        phi = f(k - 1, k) * phi + f(1, k) * PHI_INTERVAL
    return _breakdown(n, pair, phi)


def phi_via_moments(n: int, p) -> PhiBreakdown:
    """phi(B_p^n) = n R(n, p) R(n, q) in closed form (route two).

    R(n, p) = E x_1^2 = B(3/p, (n-1)/p + 1) / B(1/p, (n-1)/p + 1), and
    R(n, inf) = 1/3, so every exponent in [1, inf] is covered.  The log
    volumes are phi_pball's, and so is the bound n <= PHI_PBALL_DIM_MAX.
    """
    n = _check_dim(n, PHI_PBALL_DIM_MAX)
    pair = dual_exponent(p)
    return _breakdown(n, pair, n * math.exp(_log_r(n, pair.p) + _log_r(n, pair.q)))


def phi_combine(phiA: float, n: int, phiB: float, m: int, p) -> float:
    """phi of the p-product from the factor values:

    phi(A x_p B) = f(n, n+m, p) phi(A) + f(m, n+m, p) phi(B)
    for dim A = n, dim B = m.
    """
    n = _check_dim(n)
    m = _check_dim(m)
    if phiA < 0.0 or phiB < 0.0:
        raise DomainError("factor phi values must be nonnegative")
    p = _check_p(p)
    return f_factor(float(n), float(n + m), p) * phiA + f_factor(
        float(m), float(n + m), p
    ) * phiB


def inequality_report(n: int, p) -> IsotropyReport:
    """Volume-product and isotropy-chain quantities for B_p^n; nothing is judged.

    The claims |K| |K°| <= |B_2^n|^2 (volume-product bound) and
    lower_bound <= phi (isotropy chain) are judged by
    `polarphi verify inequalities`.  The identity itself,
    phi = n R(n, p) R(n, q), is phi_via_moments, judged by
    `polarphi verify theorem`.
    """
    p = _check_p(p)
    rec = phi_pball(n, p)
    lv, lw = rec.log_volume, rec.log_polar_volume
    lb2 = _log_volume(n, 2.0)
    return IsotropyReport(
        dim=n,
        p=p,
        phi=rec.phi,
        log_santalo_product=lv + lw,
        lower_bound=n * math.exp(2.0 / n * (lv + lw) - 4.0 / n * lb2) / (n + 2.0) ** 2,
    )
