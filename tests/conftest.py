"""Shared references for the test modules."""

import math

import pytest


def _slice_volume(n: int, p: float) -> float:
    """|B_p^n| by the slice recursion |B_p^k| = |B_p^{k-1}| 2(k-1)/(pk) B(1/p, (k-1)/p).

    The slice at height t of B_p^k is (1 - |t|^p)^{1/p} B_p^{k-1}, so each
    step integrates that radius to the power k - 1; base |B_p^1| = 2, and
    p = inf is the cube.  Independent of the closed form it checks.
    """
    if math.isinf(p):
        return 2.0**n
    lv = math.log(2.0)
    for k in range(2, n + 1):
        a, b = 1.0 / p, (k - 1.0) / p
        log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        lv += math.log(2.0 * (k - 1) / (p * k)) + log_beta
    return math.exp(lv)


def _f_factor(y1: float, y2: float, p: float) -> float:
    """f(y1, y2, p) with its eight log-gammas evaluated on the spot."""
    if p == 1.0 or math.isinf(p):
        return (y1 + 1.0) * (y1 + 2.0) / ((y2 + 1.0) * (y2 + 2.0))
    q = p / (p - 1.0)
    lf = (
        2.0 * math.log(y1 + 2.0)
        + 2.0 * math.log(y2)
        - 2.0 * math.log(y1)
        - 2.0 * math.log(y2 + 2.0)
        + math.lgamma((y1 + 2.0) / p)
        + math.lgamma((y1 + 2.0) / q)
        + math.lgamma(y2 / p)
        + math.lgamma(y2 / q)
        - math.lgamma((y2 + 2.0) / p)
        - math.lgamma((y2 + 2.0) / q)
        - math.lgamma(y1 / p)
        - math.lgamma(y1 / q)
    )
    return math.exp(lf)


def _f_factor_loop(n: int, p: float) -> float:
    """phi(B_p^n) by the f-factor recursion, 8 log-gammas per factor per step.

    phi_1 = 1/9, phi_k = f(k-1, k, p) phi_{k-1} + f(1, k, p) / 9: the
    recursion without a log-gamma table, summing every log f in the same
    order as the library, so the tabled recursion must equal it bit for bit.
    """
    ninth = 1.0 / 9.0
    phi = ninth
    for k in range(2, n + 1):
        phi = _f_factor(k - 1.0, float(k), p) * phi + _f_factor(1.0, float(k), p) * ninth
    return phi


@pytest.fixture
def slice_volume():
    return _slice_volume


@pytest.fixture
def f_factor_loop():
    return _f_factor_loop
