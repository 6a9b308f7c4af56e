"""The theorem at n = inf: n phi(B_p^n) tends to c(p), which is largest at p = 2.

At fixed p, E x_1^2 over B_p^n is Gamma(3/p) Gamma(n/p + 1) /
(Gamma(1/p) Gamma((n+2)/p + 1)), about (Gamma(3/p)/Gamma(1/p)) (n/p)^(-2/p),
so with 1/p + 1/q = 1

    n phi(B_p^n) -> c(p) = p^(2/p) q^(2/q) Gamma(3/p) Gamma(3/q) / (Gamma(1/p) Gamma(1/q)).

c(2) = 1 and c(1) = c(inf) = 2/3.  With x = 1/p and
h(x) = -2x ln x + ln Gamma(3x) - ln Gamma(x), ln c = h(x) + h(1-x) and

    h''(x) = [V(3x) - V(x)] / x^2,      V(w) = W(w) - w,  W(w) = w^2 psi'(w).

V'' = W'' > 0 (the certified lemma) and V'(w) -> 0 as w -> inf, so V' < 0,
V decreases and h'' < 0: c is log-concave in 1/p and symmetric about 1/2,
so it peaks at p = 2 and is smallest at p in {1, inf}.

The gap: Gamma(z+1)/Gamma(z+1+a) = z^(-a) [1 - a(a+1)/(2z) + O(z^-2)] with
z = n/p, a = 2/p gives a relative term -(1 + 2/p)/n on each side, so
n phi = c(p) (1 - 4/n + O(n^-2)) for 1 < p < inf; at p in {1, inf} one side
is the exact 1/3 and the term is -3/n.  At p = 2, n phi - 1 = -4(n+1)/(n+2)^2
exactly.  Since c <= 1, |n phi - c(p)| <= C/n with C = 4.
"""

import math

import mpmath as mp

from polarphi.exact import phi_pball, phi_via_moments

C_GAP = 4.0


def _h(x):
    if x == 0.0:  # ln Gamma(3x) - ln Gamma(x) -> -ln 3
        return -math.log(3.0)
    return -2.0 * x * math.log(x) + math.lgamma(3.0 * x) - math.lgamma(x)


def c_limit(p):
    x = 0.0 if p == math.inf else 1.0 / p
    return math.exp(_h(x) + _h(1.0 - x))


def test_n_phi_is_within_c_over_n_of_the_limit():
    for n in (100, 1000):
        for p in (1.0, 1.1, 1.5, 2.0, 3.0, 10.0, math.inf):
            c = c_limit(p)
            for route in (phi_pball, phi_via_moments):
                gap = n * route(n, p).phi - c
                assert -C_GAP / n <= gap < 0.0, (n, p, route.__name__, gap)
        # the ball's gap in closed form
        assert abs(n * phi_pball(n, 2.0).phi - 1.0 + 4.0 * (n + 1) / (n + 2) ** 2) <= 1e-11


def test_c_is_concave_in_inverse_p_and_peaks_at_2():
    xs = [i / 200 for i in range(201)]
    cs = [c_limit(math.inf if x == 0.0 else 1.0 / x) for x in xs]
    assert all(cs[i - 1] - 2.0 * cs[i] + cs[i + 1] < 0.0 for i in range(1, 200))
    assert max(range(201), key=cs.__getitem__) == 100  # x = 1/2, p = 2
    assert abs(cs[100] - 1.0) <= 2e-15
    assert abs(cs[0] - 2.0 / 3.0) <= 1e-15 and abs(cs[-1] - 2.0 / 3.0) <= 1e-15
    assert all(2.0 / 3.0 - 1e-15 <= c <= 1.0 + 1e-15 for c in cs)
    # symmetric under p <-> q
    assert all(abs(cs[i] - cs[200 - i]) <= 1e-14 for i in range(201))


def test_c_and_its_concavity_in_mpmath():
    with mp.workdps(40):
        for p in ("1.1", "1.5", "3", "10"):
            p = mp.mpf(p)
            q = p / (p - 1)
            ref = (
                p ** (2 / p) * q ** (2 / q) * mp.gamma(3 / p) * mp.gamma(3 / q)
                / (mp.gamma(1 / p) * mp.gamma(1 / q))
            )
            assert abs(c_limit(float(p)) - ref) <= 1e-14 * ref, p
            # the limit itself: the exact n phi at n = 10^8 is within 4/n of it
            n = mp.mpf(10) ** 8
            r = mp.gamma(3 / p) * mp.exp(mp.loggamma(n / p + 1) - mp.loggamma((n + 2) / p + 1))
            r /= mp.gamma(1 / p)
            s = mp.gamma(3 / q) * mp.exp(mp.loggamma(n / q + 1) - mp.loggamma((n + 2) / q + 1))
            s /= mp.gamma(1 / q)
            assert abs(n * n * r * s - ref) <= C_GAP / n

        def h(x):
            return -2 * x * mp.log(x) + mp.loggamma(3 * x) - mp.loggamma(x)

        def V(w):
            return w * w * mp.psi(1, w) - w

        for x in ("0.1", "0.3", "0.5", "0.8"):
            x = mp.mpf(x)
            h2 = mp.diff(h, x, 2)
            assert abs(h2 - (V(3 * x) - V(x)) / x**2) < 1e-25 and h2 < 0, x
