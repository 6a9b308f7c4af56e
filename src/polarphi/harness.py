"""Grid verification of the analytic machinery behind the p-product formula.

The claim that phi(B_p^n) is maximized at p = 2 reduces to properties of

    f1(x) = f(y1, y2, 1/x)                 on x in [0, 1]

whose logarithmic derivative telescopes into differences of

    F(x, y) = (y+2) [psi((y+2)x) - psi((y+2)(1-x))]
            -  y   [psi(yx)     - psi(y(1-x))],

with G(x, y) = dF/dy (an eight-term psi/psi' expression), and
dG/dx = H(x, y+2) - H(x, y) for

    H(x, y) = 2y [psi'(yx) + psi'(y(1-x))]
            + y^2 [x psi''(yx) + (1-x) psi''(y(1-x))].

Positivity of dH/dy rests on convexity of x^2 psi'(x), whose second
derivative is 2 psi'(x) + 4x psi''(x) + x^2 psi'''(x).

This module evaluates every one of those claims on explicit grids: sign and
monotonicity assertions in :func:`monotonicity_report`, the derivative
identities against central differences in :func:`finite_difference_report`,
and the maximization itself in :func:`scan_p_argmax`.  Grid evidence, not
proof -- but a sign flip anywhere would falsify the chain.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .exact import f_factor, phi_pball
from .specfun import digamma, pentagamma, tetragamma, trigamma

# Ties at this level are violations, not passes: strict monotonicity is the
# claim, and a difference indistinguishable from rounding noise doesn't
# support it.
TIE_EPS = 1e-12

DEFAULT_DIMS = (2, 3, 5, 10, 20)

# the grids of monotonicity_report; x stays clear of the psi poles at {0, 1}
_X_GRID = np.linspace(1e-3, 1.0 - 1e-3, 101)
_Y_GRID = np.geomspace(0.1, 50.0, 33)
_PAIR_GRID = ((1.0, 2.0), (1.0, 3.0), (2.0, 3.0), (2.5, 7.5), (5.0, 20.0))


def default_p_grid() -> list:
    """64-point geometric grid on [1, 64], with 2 inserted and inf appended."""
    grid = sorted(set(np.geomspace(1.0, 64.0, 64).tolist()) | {2.0})
    grid.append(math.inf)
    return grid


@dataclass
class GridReport:
    """Outcome of one grid verification sweep.

    values holds one entry per check: phi at each exponent for the argmax
    scan, the margin toward violation for the sign sweep, the relative
    residual for the finite-difference identities.  violations holds
    (point, value) pairs that breached the asserted sign, monotonicity, or
    residual bound; max_residual is the worst observed finite-difference
    mismatch (or margin toward violation, for sign sweeps).
    A passing report has no violations and max_residual <= tolerance.
    """

    description: str
    grid: list
    values: list
    violations: list
    max_residual: float
    tolerance: float
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations and self.max_residual <= self.tolerance


def f1_eval(x: float, y1: float, y2: float) -> float:
    """f1(x) = f(y1, y2, 1/x) on [0, 1]; endpoints use the rational limit branch."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return f_factor(y1, y2, math.inf)
    return f_factor(y1, y2, 1.0 / x)


def _check_xy(x, y):
    x = float(x)
    y = float(y)
    if not 0.0 < x < 1.0:
        raise DomainError(f"x must lie in (0, 1), got {x!r}")
    if y <= 0.0:
        raise DomainError(f"y must be positive, got {y!r}")
    return x, y


def F_eval(x: float, y: float) -> float:
    x, y = _check_xy(x, y)
    return (y + 2.0) * (digamma((y + 2.0) * x) - digamma((y + 2.0) * (1.0 - x))) - y * (
        digamma(y * x) - digamma(y * (1.0 - x))
    )


def G_eval(x: float, y: float) -> float:
    """dF/dy, written out: antisymmetric about x = 1/2, zero exactly there."""
    x, y = _check_xy(x, y)
    u = 1.0 - x
    a = (y + 2.0) * x
    b = (y + 2.0) * u
    c = y * x
    d = y * u
    return (
        digamma(a)
        - digamma(b)
        - (digamma(c) - digamma(d))
        + (y + 2.0) * (x * trigamma(a) - u * trigamma(b))
        - y * (x * trigamma(c) - u * trigamma(d))
    )


def H_eval(x: float, y: float) -> float:
    x, y = _check_xy(x, y)
    u = 1.0 - x
    return 2.0 * y * (trigamma(y * x) + trigamma(y * u)) + y * y * (
        x * tetragamma(y * x) + u * tetragamma(y * u)
    )


def xsq_trigamma_convexity(x: float) -> float:
    """Second derivative of x^2 psi'(x): 2 psi'(x) + 4x psi''(x) + x^2 psi'''(x)."""
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"x must be positive, got {x!r}")
    return 2.0 * trigamma(x) + 4.0 * x * tetragamma(x) + x * x * pentagamma(x)


def scan_p_argmax(n: int, p_grid=None, *, tolerance: float = 1e-12) -> GridReport:
    """phi(B_p^n) over a p-grid; asserts the maximum sits exactly at p = 2.

    The grid must contain 2 and both endpoint exponents {1, inf}.  Violations
    collect, once each, every p with phi(p) > phi(2) + tolerance and any
    p != 2 that ties or beats phi(2) outright (the maximum must be strict),
    so an argmax other than 2 is among them.
    """
    if p_grid is None:
        p_grid = default_p_grid()
    p_grid = [float(p) for p in p_grid]
    if 2.0 not in p_grid or 1.0 not in p_grid or math.inf not in p_grid:
        raise DomainError("p grid must contain 1, 2 and inf")
    values = [phi_pball(n, p).phi for p in p_grid]
    phi2 = values[p_grid.index(2.0)]
    violations = []
    worst_margin = -math.inf
    for p, v in zip(p_grid, values):
        if p == 2.0:
            continue
        margin = v - phi2  # must be strictly negative
        worst_margin = max(worst_margin, margin)
        if v > phi2 + tolerance or margin >= 0.0:
            violations.append((p, v))
    argmax_p = p_grid[int(np.argmax(values))]
    return GridReport(
        description=f"phi(B_p^{n}) argmax scan over {len(p_grid)} exponents",
        grid=p_grid,
        values=values,
        violations=violations,
        max_residual=worst_margin,
        tolerance=0.0,
        extras={"argmax_p": argmax_p, "phi_at_2": phi2, "dim": n},
    )


def monotonicity_report() -> GridReport:
    """Sign and monotonicity sweep over every pointwise claim in the chain.

    Checks, with ties at 1e-12 counted as violations:
      * ln f1 strictly increasing over consecutive grid x in (0, 1/2);
      * F(x, .) strictly decreasing over consecutive grid y;
      * dH/dy > 0 (central difference, h = 1e-5 max(1, y));
      * G < 0 on x in (0, 1/2), G > 0 on (1/2, 1) (0.5 itself excluded);
      * x^2 psi'(x) convex: second-derivative expression > 0 on a log grid.
    """
    xs, ys, pairs = _X_GRID, _Y_GRID, _PAIR_GRID
    margins = []  # one per check: the signed distance to a violation
    violations = []

    def note(point, margin, value):
        margins.append(margin)
        if margin >= -TIE_EPS:
            violations.append((point, value))

    # ln f1 strictly increasing on (0, 1/2)
    left = [x for x in xs if x < 0.5 - 1e-9]
    for y1, y2 in pairs:
        vals = [math.log(f1_eval(x, y1, y2)) for x in left]
        for i in range(len(vals) - 1):
            d = vals[i + 1] - vals[i]
            note(("lnf1", y1, y2, left[i], left[i + 1]), -d, d)

    # F strictly decreasing in y for x < 1/2 (and, by the antisymmetry of F
    # about x = 1/2, strictly increasing for x > 1/2; at 1/2 it is identically
    # zero, so the midpoint is excluded like in the G sign sweep below)
    for x in xs:
        if abs(x - 0.5) <= 1e-9:
            continue
        fvals = [F_eval(x, y) for y in ys]
        sign = 1.0 if x < 0.5 else -1.0
        for j in range(len(fvals) - 1):
            d = sign * (fvals[j + 1] - fvals[j])  # must be strictly negative
            note(("F_mono", x, ys[j], ys[j + 1]), d, d)

    # dH/dy > 0
    for x in xs:
        for y in ys:
            h = 1e-5 * max(1.0, y)
            d = (H_eval(x, y + h) - H_eval(x, y - h)) / (2.0 * h)
            note(("dHdy", x, y), -d, d)

    # G sign split about 1/2
    for x in xs:
        if abs(x - 0.5) <= 1e-9:
            continue
        for y in ys:
            g = G_eval(x, y)
            # g must be strictly negative on the left half, positive on the right
            note(("G_sign", x, y), g if x < 0.5 else -g, g)

    # convexity of x^2 psi'(x)
    for x in np.geomspace(0.01, 100.0, 201):
        c = xsq_trigamma_convexity(float(x))
        note(("convexity", float(x)), -c, c)

    return GridReport(
        description="sign/monotonicity sweep (lnf1, F, dH/dy, G sign, convexity)",
        grid=[("x", len(xs)), ("y", len(ys)), ("pairs", len(pairs))],
        values=margins,
        violations=violations,
        # closest approach to a violation (<= -1e-12 passes)
        max_residual=max(margins, default=-math.inf),
        tolerance=-TIE_EPS,
    )


def _fd_x_grid() -> list:
    # stay clear of 0.5, where F differences and G cross zero and relative
    # error loses meaning
    return [x / 20.0 for x in range(1, 20) if x != 10]


_FD_Y_GRID = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


def finite_difference_report(*, tolerance: float = 1e-5) -> GridReport:
    """Derivative identities vs central differences, plus exact symmetries.

    Residuals (relative):
      * d/dx ln f1  vs  F(x, y1) - F(x, y2)
      * dF/dy       vs  G
      * dG/dx       vs  H(x, y+2) - H(x, y)
      * second difference of x^2 psi'(x)  vs  the closed second derivative
        (step 1e-2 max(1,x) with one Richardson pass: the raw 1e-5 step is
        rounding-dominated for a second difference)
      * f1(x) = f1(1-x), G(x,y) = -G(1-x,y), H(x,y) = H(1-x,y)
    """
    xs = _fd_x_grid()
    residuals = []  # one relative residual per check
    violations = []

    def note(tag, point, rel):
        residuals.append(rel)
        if rel > tolerance:
            violations.append(((tag,) + tuple(point), rel))

    for y1, y2 in ((1.0, 2.0), (1.0, 3.0), (2.0, 5.0)):
        for x in xs:
            h = 1e-5
            fd = (
                math.log(f1_eval(x + h, y1, y2)) - math.log(f1_eval(x - h, y1, y2))
            ) / (2.0 * h)
            ref = F_eval(x, y1) - F_eval(x, y2)
            note("dlnf1", (x, y1, y2), abs(fd - ref) / max(abs(ref), abs(fd), 1e-12))

    for x in xs:
        for y in _FD_Y_GRID:
            h = 1e-5 * max(1.0, y)
            fd = (F_eval(x, y + h) - F_eval(x, y - h)) / (2.0 * h)
            ref = G_eval(x, y)
            note("dFdy", (x, y), abs(fd - ref) / max(abs(ref), abs(fd), 1e-12))

    for x in xs:
        for y in _FD_Y_GRID:
            h = 1e-5
            fd = (G_eval(x + h, y) - G_eval(x - h, y)) / (2.0 * h)
            ref = H_eval(x, y + 2.0) - H_eval(x, y)
            note("dGdx", (x, y), abs(fd - ref) / max(abs(ref), abs(fd), 1e-12))

    def g2(x):
        return x * x * trigamma(x)

    for x in list(np.geomspace(0.01, 100.0, 25)) + [0.5, 2.0, 10.0]:
        x = float(x)
        # clamp so x - h stays positive at the small end of the grid
        h = min(1e-2 * max(1.0, x), 0.5 * x)

        def second(hh):
            return (g2(x + hh) - 2.0 * g2(x) + g2(x - hh)) / (hh * hh)

        fd = (4.0 * second(h / 2.0) - second(h)) / 3.0
        ref = xsq_trigamma_convexity(x)
        note("convexity_fd", (x,), abs(fd - ref) / max(abs(ref), abs(fd), 1e-12))

    for x in xs:
        for y1, y2 in ((1.0, 2.0), (2.0, 5.0)):
            a = f1_eval(x, y1, y2)
            b = f1_eval(1.0 - x, y1, y2)
            note("f1_sym", (x, y1, y2), abs(a - b) / abs(a))
        for y in (0.5, 2.0, 8.0):
            ga, gb = G_eval(x, y), G_eval(1.0 - x, y)
            note("G_antisym", (x, y), abs(ga + gb) / max(abs(ga), 1e-12))
            ha, hb = H_eval(x, y), H_eval(1.0 - x, y)
            note("H_sym", (x, y), abs(ha - hb) / max(abs(ha), 1e-12))

    return GridReport(
        description="finite-difference identities and exact symmetries",
        grid=[("x", len(xs)), ("y", len(_FD_Y_GRID))],
        values=residuals,
        violations=violations,
        max_residual=max(residuals, default=0.0),
        tolerance=tolerance,
    )
