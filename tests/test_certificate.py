"""The W'' > 0 certificate and the chain it proves, rechecked in 50-digit mpmath.

W(w) = w^2 psi'(w).  `harness.monotonicity_report` proves W'' > 0 on all of
(0, inf): bisection cells on [0, 2] whose float lower bounds clear a
rounding budget, and for w >= 2 Alzer's envelopes of psi', psi'' and
psi''', which give W''(w) > 1/(3w^3) - 2/(5w^5) - 2/(3w^7) > 0.  These tests
check every step of that proof that is not plain algebra: the three
envelopes, the tail polynomial against W'', and each cell's float bound
against its exact value.

The paper's chain from the lemma to the maximum at p = 2 then needs only
identities, checked here to 1e-25:

  * H(x, y) = W'(yx)/x + W'(y(1-x))/(1-x), so dH/dy = W''(yx) + W''(y(1-x))
    > 0: the old "dH/dy > 0" sweep.
  * dG/dx = H(x, y+2) - H(x, y) > 0, and G(x, y) = -G(1-x, y) gives
    G(1/2, y) = 0, so G < 0 on (0, 1/2) and G > 0 on (1/2, 1): the old
    "G sign" sweep.
  * dF/dy = G, so F strictly decreases in y on (0, 1/2): the old "F
    decreasing" sweep.
  * d ln f1/dx = F(x, y1) - F(x, y2) > 0 on (0, 1/2) for y1 < y2: the old
    "ln f1 increasing" sweep.  f1(x) = f1(1-x) then puts the maximum at
    x = 1/2, that is at p = 2.
  * The old "convexity" sweep sampled W'' itself on 201 points.

For the p-balls the lemma gives every n at once: with x = 1/p and
g_n(x) = ln R(n, 1/x), phi(B_p^n) = n exp(g_n(x) + g_n(1-x)) and

    g_n''(x) = [W(3x) - W(x) + W(nx) - W((n+2)x)] / x^2 < 0    (n >= 2),

since [x, 3x] and [nx, (n+2)x] have the same length and the second lies to
the right.
"""

import mpmath as mp
import numpy as np
import pytest

from polarphi import harness
from polarphi.exact import phi_pball

DPS = 50


@pytest.fixture(autouse=True)
def _fifty_digits():
    with mp.workdps(DPS):
        yield


def W(w):
    return w * w * mp.psi(1, w)


def W1(w):  # W' by differentiation, not by its closed form
    return mp.diff(W, w)


def W2(w):
    return 2 * mp.psi(1, w) + 4 * w * mp.psi(2, w) + w * w * mp.psi(3, w)


def tail(w):
    return 1 / (3 * w**3) - mp.mpf(2) / (5 * w**5) - mp.mpf(2) / (3 * w**7)


def F(x, y):
    u = 1 - x
    return (y + 2) * (mp.psi(0, (y + 2) * x) - mp.psi(0, (y + 2) * u)) - y * (
        mp.psi(0, y * x) - mp.psi(0, y * u)
    )


def G(x, y):
    return mp.diff(lambda t: F(x, t), y)


def H(x, y):
    u = 1 - x
    return 2 * y * (mp.psi(1, y * x) + mp.psi(1, y * u)) + y * y * (
        x * mp.psi(2, y * x) + u * mp.psi(2, y * u)
    )


def ln_f1(x, y1, y2):
    """ln f(y1, y2, 1/x), from exact.f_factor's Gamma form."""
    u = 1 - x

    def side(y):
        return mp.loggamma(y * x) + mp.loggamma(y * u)

    return (
        2 * mp.log((y1 + 2) * y2 / (y1 * (y2 + 2)))
        + side(y1 + 2) + side(y2) - side(y2 + 2) - side(y1)
    )


def _log_grid(lo, hi, num):
    return [mp.mpf(float(w)) for w in np.geomspace(lo, hi, num)]


def test_alzer_envelopes():
    # Alzer, Math. Comp. 66 (1997) 373-389: the asymptotic series of psi^(k),
    # k >= 1, envelops it; cut after 2, 3 and 2 Bernoulli terms
    for w in _log_grid(0.01, 1000.0, 41):
        assert mp.psi(1, w) > 1 / w + 1 / (2 * w**2) + 1 / (6 * w**3) - 1 / (30 * w**5), w
        assert -mp.psi(2, w) < (
            1 / w**2 + 1 / w**3 + 1 / (2 * w**4) - 1 / (6 * w**6) + 1 / (6 * w**8)
        ), w
        assert mp.psi(3, w) > 2 / w**3 + 3 / w**4 + 2 / w**5 - 1 / w**7, w


def test_envelopes_combine_into_the_tail_polynomial():
    for w in _log_grid(0.5, 50.0, 5):
        lower1 = 1 / w + 1 / (2 * w**2) + 1 / (6 * w**3) - 1 / (30 * w**5)
        upper2 = 1 / w**2 + 1 / w**3 + 1 / (2 * w**4) - 1 / (6 * w**6) + 1 / (6 * w**8)
        lower3 = 2 / w**3 + 3 / w**4 + 2 / w**5 - 1 / w**7
        assert abs(2 * lower1 - 4 * w * upper2 + w * w * lower3 - tail(w)) < mp.mpf(10) ** -45


def test_tail_polynomial_lies_below_W2():
    for w in _log_grid(1.47, 1000.0, 41):
        assert W2(w) > tail(w) > 0, w
    # tail is positive exactly past the root of 5u^2 - 6u - 10 at u = w^2
    root = mp.sqrt((3 + mp.sqrt(59)) / 5)
    assert abs(tail(root)) < mp.mpf(10) ** -45
    assert abs(harness.TAIL_FROM - root) < 1e-15
    assert harness.TAIL_FROM < harness.CELLS_TO


def test_each_cell_bound_is_within_its_budget_of_the_exact_bound():
    rep = harness.monotonicity_report()
    assert rep.passed
    for a, b in rep.grid:
        bound, budget = harness._cell_bound(a, b)
        am, bm = mp.mpf(a), mp.mpf(b)
        exact = 2 * mp.psi(1, 1 + bm) + 4 * bm * mp.psi(2, 1 + am) + am**2 * mp.psi(3, 1 + bm)
        assert abs(bound - exact) <= budget, (a, b)
        assert exact > bound - budget > 0, (a, b)
        # and the bound lies below W'' inside the cell
        assert W2((am + bm) / 2) >= exact, (a, b)


_POINTS = ((0.05, 0.3), (0.2, 1.0), (0.4, 2.5), (0.7, 8.0), (0.9, 25.0))


def test_H_is_a_sum_of_W_prime():
    for x, y in _POINTS:
        x, y = mp.mpf(x), mp.mpf(y)
        u = 1 - x
        assert abs(H(x, y) - (W1(y * x) / x + W1(y * u) / u)) < 1e-25, (x, y)
        dHdy = mp.diff(lambda t: H(x, t), y)
        assert abs(dHdy - (W2(y * x) + W2(y * u))) < 1e-25, (x, y)
        # and harness.H_eval is the same function
        assert abs(harness.H_eval(float(x), float(y)) - H(x, y)) < 1e-12 * H(x, y)


def test_the_chain_down_to_ln_f1():
    for x, y in _POINTS:
        x, y = mp.mpf(x), mp.mpf(y)
        dGdx = mp.diff(lambda t: G(t, y), x)
        assert abs(dGdx - (H(x, y + 2) - H(x, y))) < 1e-25, (x, y)
        assert abs(G(x, y) + G(1 - x, y)) < 1e-25, (x, y)
        assert abs(G(x, y) - harness.G_eval(float(x), float(y))) < 1e-12
    for y1, y2 in ((1, 2), (2.5, 7.5)):
        for x in (mp.mpf("0.1"), mp.mpf("0.35")):
            dlnf1 = mp.diff(lambda t: ln_f1(t, y1, y2), x)
            assert abs(dlnf1 - (F(x, y1) - F(x, y2))) < 1e-25, (x, y1, y2)
            assert abs(ln_f1(x, y1, y2) - ln_f1(1 - x, y1, y2)) < 1e-25
            assert abs(mp.exp(ln_f1(x, y1, y2)) - harness.f1_eval(float(x), y1, y2)) < 1e-13


def _g(n, x):
    """g_n(x) = ln R(n, 1/x), R(n, p) = Gamma(3/p) Gamma(n/p + 1) / (Gamma(1/p) Gamma((n+2)/p + 1))."""
    return mp.loggamma(3 * x) + mp.loggamma(n * x + 1) - mp.loggamma(x) - mp.loggamma((n + 2) * x + 1)


@pytest.mark.parametrize("n, x", [(2, "0.3"), (3, "0.5"), (10, "0.15"), (100, "0.8")])
def test_every_n_reads_the_lemma(n, x):
    x = mp.mpf(x)
    g2 = mp.diff(lambda t: _g(n, t), x, 2)
    assert abs(g2 - (W(3 * x) - W(x) + W(n * x) - W((n + 2) * x)) / x**2) < 1e-25
    assert g2 < 0
    phi = n * mp.exp(_g(n, x) + _g(n, 1 - x))
    assert abs(phi - phi_pball(n, float(1 / x)).phi) < 1e-12 * phi
