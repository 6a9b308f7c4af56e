"""Polygamma ladder tests.

Oracle hierarchy, from most to least independent:
  1. the classical integral representation  psi^(k)(x) = (-1)^(k+1)
     Int_0^inf t^k e^(-x t) / (1 - e^(-t)) dt  for k >= 1, evaluated with
     scipy quadrature (the k = 0 version diverges, so the digamma itself is
     pinned by series constants and recurrences instead);
  2. exact series values at x = 1: psi(1) = -euler_gamma, psi'(1) = pi^2/6,
     psi''(1) = -2 zeta(3), psi'''(1) = pi^4/15;
  3. mpmath.psi / mpmath.loggamma on a wide log grid;
  4. internal consistency: recurrences, half-integer closed forms, central
     differences tying each derivative order to the next.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from polarphi.errors import DomainError
from polarphi.specfun import (
    digamma,
    log_beta,
    log_gamma,
    pentagamma,
    polygamma,
    tetragamma,
    trigamma,
)

EULER_GAMMA = 0.5772156649015328606
ZETA3 = 1.2020569031595942854

mpmath.mp.dps = 30


def test_series_values_at_one():
    assert abs(digamma(1.0) + EULER_GAMMA) <= 1e-10
    assert abs(trigamma(1.0) - math.pi**2 / 6.0) <= 1e-10
    assert abs(tetragamma(1.0) + 2.0 * ZETA3) <= 1e-10
    assert abs(pentagamma(1.0) - math.pi**4 / 15.0) <= 1e-10


def test_half_integer_closed_forms():
    # psi(1/2) = -gamma - 2 ln 2, psi'(1/2) = pi^2/2, and the step to 3/2
    assert abs(digamma(0.5) + EULER_GAMMA + 2.0 * math.log(2.0)) <= 1e-13
    assert abs(trigamma(0.5) - math.pi**2 / 2.0) <= 1e-13
    assert abs(digamma(1.5) - digamma(0.5) - 2.0) <= 1e-12
    assert abs(trigamma(1.5) - (math.pi**2 / 2.0 - 4.0)) <= 1e-13


def test_integral_representation_oracle():
    """psi^(k) against quadrature of the Laplace-type integral, k = 1..3."""
    rng = np.random.default_rng(20260815)
    xs = np.exp(rng.uniform(math.log(0.05), math.log(50.0), size=200))
    funcs = {1: trigamma, 2: tetragamma, 3: pentagamma}
    for k, fn in funcs.items():
        sign = (-1.0) ** (k + 1)
        for x in xs[:67] if k > 1 else xs:
            val, err = quad(
                lambda t: t**k * math.exp(-x * t) / (-math.expm1(-t)),
                0.0,
                np.inf,
                epsabs=1e-13,
                epsrel=1e-12,
                limit=200,
            )
            ref = sign * val
            assert abs(fn(x) - ref) <= 1e-8 * abs(ref), (k, x)


def test_against_mpmath_grid():
    xs = np.geomspace(1e-3, 1e4, 120)
    for x in xs:
        x = float(x)
        ref = float(mpmath.loggamma(x))
        assert abs(log_gamma(x) - ref) <= 2e-15 * max(1.0, abs(ref)), x
        for k, fn in enumerate((digamma, trigamma, tetragamma, pentagamma)):
            ref = float(mpmath.psi(k, x))
            assert abs(fn(x) - ref) <= 1e-12 * max(1.0, abs(ref)), (k, x)


def test_recurrences_on_log_grid():
    for x in np.geomspace(0.01, 100.0, 97):
        x = float(x)
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-12 * max(
            1.0, abs(digamma(x))
        )
        assert abs(trigamma(x + 1.0) - trigamma(x) + x**-2) <= 1e-12 * max(
            1.0, abs(trigamma(x))
        )
        assert abs(tetragamma(x + 1.0) - tetragamma(x) - 2.0 * x**-3) <= 1e-12 * max(
            1.0, abs(tetragamma(x))
        )
        assert abs(pentagamma(x + 1.0) - pentagamma(x) + 6.0 * x**-4) <= 1e-12 * max(
            1.0, abs(pentagamma(x))
        )
        assert abs(
            log_gamma(x + 1.0) - log_gamma(x) - math.log(x)
        ) <= 1e-12 * max(1.0, abs(log_gamma(x)))


def test_derivative_ladder_central_differences():
    ladder = ((digamma, trigamma), (trigamma, tetragamma), (tetragamma, pentagamma))
    for x in (0.3, 0.7, 1.0, 2.5, 7.0, 20.0, 90.0):
        for lo, hi in ladder:
            h = 1e-5 * max(1.0, x)
            fd = (lo(x + h) - lo(x - h)) / (2.0 * h)
            ref = hi(x)
            assert abs(fd - ref) <= 1e-6 * max(1.0, abs(ref)), (x, lo.__name__)


def test_polygamma_dispatch():
    assert polygamma(0, 2.0) == digamma(2.0)
    assert polygamma(1, 2.0) == trigamma(2.0)
    assert polygamma(2, 2.0) == tetragamma(2.0)
    assert polygamma(3, 2.0) == pentagamma(2.0)
    with pytest.raises(DomainError):
        polygamma(4, 2.0)
    with pytest.raises(DomainError):
        polygamma(-1, 2.0)


def test_log_beta():
    # B(1, b) = 1/b and symmetry is exact (commutative addition of logs)
    for b in (0.5, 1.0, 2.0, 7.5):
        assert abs(log_beta(1.0, b) + math.log(b)) <= 1e-13
    assert log_beta(0.3, 4.2) == log_beta(4.2, 0.3)
    assert abs(log_beta(0.5, 0.5) - math.log(math.pi)) <= 1e-13


def test_domain_errors():
    for fn in (log_gamma, digamma, trigamma, tetragamma, pentagamma):
        with pytest.raises(DomainError):
            fn(0.0)
        with pytest.raises(DomainError):
            fn(-1.5)
        with pytest.raises(DomainError):
            fn(math.nan)
    with pytest.raises(DomainError):
        log_beta(1.0, -2.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.01, max_value=500.0, allow_nan=False))
def test_digamma_recurrence_property(x):
    assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-11 * max(
        1.0, abs(digamma(x)), 1.0 / x
    )


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=80.0),
    st.floats(min_value=0.05, max_value=80.0),
)
def test_log_beta_symmetry_property(a, b):
    assert log_beta(a, b) == log_beta(b, a)
