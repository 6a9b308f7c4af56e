"""Real-argument log-gamma, log-beta, digamma and polygamma (orders 1-3).

log_gamma and log_beta use the C library's lgamma (math.lgamma).  The
polygammas recurrence-shift the argument up to ``x >= 12``, then sum a
Bernoulli-coefficient asymptotic expansion.  Eight Bernoulli terms at shift
12 leave the truncated tail below 1e-16 relative, so the dominant error is
the accumulated rounding of the shift sums (worst observed: ~2e-15 on a log
grid over [1e-3, 1e4]).  The public wrappers validate the domain.
"""

import math

from .errors import DomainError

# Bernoulli numbers B_2, B_4, ..., B_16
_B2 = 1.0 / 6.0
_B4 = -1.0 / 30.0
_B6 = 1.0 / 42.0
_B8 = -1.0 / 30.0
_B10 = 5.0 / 66.0
_B12 = -691.0 / 2730.0
_B14 = 7.0 / 6.0
_B16 = -3617.0 / 510.0

_SHIFT = 12.0


def _digamma_kernel(x):
    rec = 0.0
    z = x
    while z < _SHIFT:
        rec += 1.0 / z
        z += 1.0
    zz = 1.0 / (z * z)
    # sum_{n} B_{2n} / (2n z^{2n})
    t = zz
    s = _B2 / 2.0 * t
    t *= zz
    s += _B4 / 4.0 * t
    t *= zz
    s += _B6 / 6.0 * t
    t *= zz
    s += _B8 / 8.0 * t
    t *= zz
    s += _B10 / 10.0 * t
    t *= zz
    s += _B12 / 12.0 * t
    t *= zz
    s += _B14 / 14.0 * t
    t *= zz
    s += _B16 / 16.0 * t
    return math.log(z) - 0.5 / z - s - rec


def _trigamma_kernel(x):
    rec = 0.0
    z = x
    while z < _SHIFT:
        rec += 1.0 / (z * z)
        z += 1.0
    zz = 1.0 / (z * z)
    # 1/z + 1/(2 z^2) + sum_n B_{2n} z^{-(2n+1)}
    t = zz / z
    s = _B2 * t
    t *= zz
    s += _B4 * t
    t *= zz
    s += _B6 * t
    t *= zz
    s += _B8 * t
    t *= zz
    s += _B10 * t
    t *= zz
    s += _B12 * t
    t *= zz
    s += _B14 * t
    t *= zz
    s += _B16 * t
    return 1.0 / z + 0.5 * zz + s + rec


def _tetragamma_kernel(x):
    rec = 0.0
    z = x
    while z < _SHIFT:
        rec += 2.0 / (z * z * z)
        z += 1.0
    zz = 1.0 / (z * z)
    # -(1/z^2 + 1/z^3 + sum_n B_{2n} (2n+1) z^{-(2n+2)})
    t = zz * zz
    s = 3.0 * _B2 * t
    t *= zz
    s += 5.0 * _B4 * t
    t *= zz
    s += 7.0 * _B6 * t
    t *= zz
    s += 9.0 * _B8 * t
    t *= zz
    s += 11.0 * _B10 * t
    t *= zz
    s += 13.0 * _B12 * t
    t *= zz
    s += 15.0 * _B14 * t
    t *= zz
    s += 17.0 * _B16 * t
    return -(zz + zz / z + s) - rec


def _pentagamma_kernel(x):
    rec = 0.0
    z = x
    while z < _SHIFT:
        rec += 6.0 / (z * z * z * z)
        z += 1.0
    zz = 1.0 / (z * z)
    # 2/z^3 + 3/z^4 + sum_n B_{2n} (2n+1)(2n+2) z^{-(2n+3)}
    t = zz * zz / z
    s = 12.0 * _B2 * t
    t *= zz
    s += 30.0 * _B4 * t
    t *= zz
    s += 56.0 * _B6 * t
    t *= zz
    s += 90.0 * _B8 * t
    t *= zz
    s += 132.0 * _B10 * t
    t *= zz
    s += 182.0 * _B12 * t
    t *= zz
    s += 240.0 * _B14 * t
    t *= zz
    s += 306.0 * _B16 * t
    return 2.0 * zz / z + 3.0 * zz * zz + s + rec


_PSI = (_digamma_kernel, _trigamma_kernel, _tetragamma_kernel, _pentagamma_kernel)


def _check_positive(x, name):
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"{name} must be a finite positive real, got {x!r}")
    return x


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    return math.lgamma(_check_positive(x, "x"))


def log_beta(a: float, b: float) -> float:
    """ln B(a,b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b), for a, b > 0."""
    a = _check_positive(a, "a")
    b = _check_positive(b, "b")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def polygamma(k: int, x: float) -> float:
    """psi^(k)(x) for k in {0,1,2,3} and x > 0 (k=0 is the digamma)."""
    if k not in (0, 1, 2, 3):
        raise DomainError(f"polygamma order must be in {{0,1,2,3}}, got {k!r}")
    return _PSI[k](_check_positive(x, "x"))


def digamma(x: float) -> float:
    return _digamma_kernel(_check_positive(x, "x"))


def trigamma(x: float) -> float:
    return _trigamma_kernel(_check_positive(x, "x"))


def tetragamma(x: float) -> float:
    return _tetragamma_kernel(_check_positive(x, "x"))


def pentagamma(x: float) -> float:
    return _pentagamma_kernel(_check_positive(x, "x"))
