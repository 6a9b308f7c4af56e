"""The analytic machinery behind the p-product formula: one certified lemma
and the identities that carry it to the maximum at p = 2.

That maximum reduces to properties of f1(x) = f(y1, y2, 1/x) on [0, 1],
whose logarithmic derivative telescopes into differences of

    F(x, y) = (y+2) [psi((y+2)x) - psi((y+2)(1-x))]
            -  y   [psi(yx)     - psi(y(1-x))],

with G(x, y) = dF/dy (an eight-term psi/psi' expression), and
dG/dx = H(x, y+2) - H(x, y) for

    H(x, y) = 2y [psi'(yx) + psi'(y(1-x))]
            + y^2 [x psi''(yx) + (1-x) psi''(y(1-x))]
            = W'(yx)/x + W'(y(1-x))/(1-x),          W(w) = w^2 psi'(w).

So dH/dy = W''(yx) + W''(y(1-x)), and the chain rests on one lemma, W'' > 0
on (0, inf): then dG/dx > 0, and G(1/2, y) = 0 by antisymmetry, so G < 0 on
(0, 1/2); F decreases in y there, so d ln f1/dx = F(x, y1) - F(x, y2) > 0
for y1 < y2, and f1(x) = f1(1-x) puts the maximum at x = 1/2, p = 2.

:func:`monotonicity_report` proves the lemma by a certificate on all of
(0, inf), :func:`finite_difference_report` checks each identity of the chain
(derivatives against central differences, H against W', the symmetries),
and :func:`scan_p_argmax` checks the maximization itself.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .exact import _check_dim, _check_p, f_factor, phi_pball
from .specfun import digamma, pentagamma, tetragamma, trigamma

# the largest relative residual of a finite-difference identity that passes
FD_TOLERANCE = 1e-5

# specfun's stated error: each polygamma is within PSI_ERR max(1, |value|)
PSI_ERR = 2e-15

# the certificate's cells tile [0, CELLS_TO]; its tail bound is positive
# past TAIL_FROM, the root of 5u^2 - 6u - 10 at u = w^2
CELLS_TO = 2.0
TAIL_FROM = math.sqrt((3.0 + math.sqrt(59.0)) / 5.0)
_MIN_WIDTH = 2.0**-10  # a cell this narrow that does not clear is a violation


def default_p_grid() -> list:
    """64-point geometric grid on [1, 64], with 2 inserted and inf appended."""
    grid = sorted(set(np.geomspace(1.0, 64.0, 64).tolist()) | {2.0})
    grid.append(math.inf)
    return grid


@dataclass
class GridReport:
    """Outcome of one verification sweep, or of the W'' certificate.

    values holds one entry per check: phi at each exponent for the argmax
    scan, rounding budget minus bound for each cell of the W'' certificate,
    the relative residual for the finite-difference identities.  violations
    holds (point, value) pairs for every check not shown to hold: a value
    that is not strictly inside its bound, NaN included.  A report passes
    when it has no violations.  max_residual (the worst finite-difference
    mismatch, or margin toward violation) and tolerance are reported
    numbers; they do not judge.
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
        return not self.violations


def _worst(values, default: float) -> float:
    """max(values), NaN if any value is NaN: max alone keeps only a leading NaN."""
    if any(math.isnan(v) for v in values):
        return math.nan
    return max(values, default=default)


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


def scan_p_argmax(n: int, p_grid=None) -> GridReport:
    """phi(B_p^n) over a p-grid; asserts the maximum sits exactly at p = 2.

    The grid (default: default_p_grid()) must contain 2 and both endpoint
    exponents {1, inf}.  Violations collect every p != 2 whose margin
    phi(p) - phi(2) is not strictly negative (the maximum must be strict),
    so an argmax other than 2 is among them.  The strict maximum is claimed
    for n >= 2 only: at n = 1 every exponent gives the interval's 1/9.
    """
    if _check_dim(n) < 2:
        raise DomainError(f"the maximum at p = 2 is claimed for dim >= 2, got {n}")
    if p_grid is None:
        p_grid = default_p_grid()
    p_grid = [_check_p(p) for p in p_grid]
    if 2.0 not in p_grid or 1.0 not in p_grid or math.inf not in p_grid:
        raise DomainError("p grid must contain 1, 2 and inf")
    values = [phi_pball(n, p).phi for p in p_grid]
    phi2 = values[p_grid.index(2.0)]
    violations = []
    margins = []
    for p, v in zip(p_grid, values):
        if p == 2.0:
            continue
        margin = v - phi2  # must be strictly negative
        margins.append(margin)
        if not margin < 0.0:
            violations.append((p, v))
    kept = [i for i, v in enumerate(values) if not math.isnan(v)]  # np.argmax picks a NaN
    argmax_p = p_grid[max(kept, key=values.__getitem__)] if kept else math.nan
    return GridReport(
        description=f"phi(B_p^{n}) argmax scan over {len(p_grid)} exponents",
        grid=p_grid,
        values=values,
        violations=violations,
        max_residual=_worst(margins, -math.inf),
        tolerance=0.0,
        extras={"argmax_p": argmax_p, "phi_at_2": phi2, "dim": n},
    )


def _cell_bound(a: float, b: float):
    """(a lower bound of W'' on the cell [a, b], its rounding budget), 0 <= a < b.

    W(w) = 1 + w^2 psi'(1+w), so W'' = 2 psi'(1+w) + 4w psi''(1+w) +
    w^2 psi'''(1+w).  psi' and psi''' are positive and decreasing, psi''
    negative and increasing, so W'' >= 2 psi'(1+b) + 4b psi''(1+a) +
    a^2 psi'''(1+b) on the cell.  The budget is the polygamma error of that
    sum, and as much again for its rounding (under 1e-15 of the terms).
    """
    weights = (2.0, 4.0 * b, a * a)
    values = (trigamma(1.0 + b), tetragamma(1.0 + a), pentagamma(1.0 + b))
    bound = sum(w * v for w, v in zip(weights, values))
    budget = 2.0 * PSI_ERR * sum(w * max(1.0, abs(v)) for w, v in zip(weights, values))
    return bound, budget


def monotonicity_report() -> GridReport:
    """Certificate that W(w) = w^2 psi'(w) is strictly convex on (0, inf).

    [0, CELLS_TO] is bisected until each cell's bound from _cell_bound
    clears its budget; the dyadic endpoints make 1 + a and 1 + b exact.  A
    cell whose bound is NaN, or that is down to _MIN_WIDTH, is a violation.

    Past CELLS_TO no polygamma is needed: the asymptotic series of psi',
    psi'' and psi''' envelop them (H. Alzer, Math. Comp. 66 (1997) 373-389),
    and cut after 2, 3 and 2 Bernoulli terms they give W''(w) > 1/(3w^3) -
    2/(5w^5) - 2/(3w^7), positive for w > TAIL_FROM = 1.4616.

    values holds budget - bound per cell, grid the cells in order, and
    max_residual the largest value: minus the worst margin over a budget.
    """
    cells, margins, violations = [], [], []
    todo = [(0.0, CELLS_TO)]
    while todo:
        a, b = todo.pop()
        bound, budget = _cell_bound(a, b)
        margin = budget - bound  # must be strictly negative
        if margin < 0.0 or math.isnan(margin) or b - a <= _MIN_WIDTH:
            cells.append((a, b))
            margins.append(margin)
            if not margin < 0.0:
                violations.append(((a, b), bound))
        else:
            mid = 0.5 * (a + b)
            todo += [(mid, b), (a, mid)]
    return GridReport(
        description=(
            f"W'' > 0 certificate: {len(cells)} cells on [0, {CELLS_TO:g}], "
            f"Alzer tail bound positive for w > {TAIL_FROM:.4f}"
        ),
        grid=cells,
        values=margins,
        violations=violations,
        max_residual=_worst(margins, -math.inf),
        tolerance=0.0,
        extras={"cells_to": CELLS_TO, "tail_from": TAIL_FROM},
    )


def _fd_x_grid() -> list:
    # stay clear of 0.5, where F differences and G cross zero and relative
    # error loses meaning
    return [x / 20.0 for x in range(1, 20) if x != 10]


_FD_Y_GRID = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


def finite_difference_report() -> GridReport:
    """Derivative identities vs central differences, H vs W', and exact symmetries.

    Residuals (relative, each passing at most FD_TOLERANCE):
      * d/dx ln f1  vs  F(x, y1) - F(x, y2)
      * dF/dy       vs  G
      * dG/dx       vs  H(x, y+2) - H(x, y)
      * H(x, y)     vs  W'(yx)/x + W'(y(1-x))/(1-x), W(w) = w^2 psi'(w):
        two closed forms (no difference quotient), the second symmetric in x, 1-x
      * second difference of x^2 psi'(x)  vs  the closed second derivative
        (step 1e-2 max(1,x) with one Richardson pass: the raw 1e-5 step is
        rounding-dominated for a second difference)
      * f1(x) = f1(1-x), G(x,y) = -G(1-x,y)
    """
    xs = _fd_x_grid()
    residuals = []  # one relative residual per check
    violations = []

    def note(tag, point, rel):
        residuals.append(rel)
        if not rel <= FD_TOLERANCE:
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

    def w1(w):  # W'(w) for W(w) = w^2 psi'(w)
        return w * (2.0 * trigamma(w) + w * tetragamma(w))

    for x in xs:
        for y in _FD_Y_GRID:
            ref = H_eval(x, y)
            alt = w1(y * x) / x + w1(y * (1.0 - x)) / (1.0 - x)
            note("H_W", (x, y), abs(alt - ref) / max(abs(ref), 1e-12))

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

    return GridReport(
        description="finite-difference identities, H vs W' and exact symmetries",
        grid=[("x", len(xs)), ("y", len(_FD_Y_GRID))],
        values=residuals,
        violations=violations,
        max_residual=_worst(residuals, 0.0),
        tolerance=FD_TOLERANCE,
    )
