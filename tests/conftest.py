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


@pytest.fixture
def slice_volume():
    return _slice_volume
