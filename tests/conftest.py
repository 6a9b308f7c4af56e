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


def _pball_moment(n: int, p: float, powers) -> float:
    """E prod |x_i|^a_i for x uniform in B_p^n, a_i = powers (the rest 0).

    The Dirichlet law of (|x_1|^p, ..., |x_n|^p, the radial share) gives
    Gamma(1+n/p) / Gamma(1+(n+sum a)/p) * prod Gamma((1+a_i)/p) / Gamma(1/p),
    and the cube's coordinates are independent uniforms: prod 1/(a_i+1).
    """
    if math.isinf(p):
        return math.prod(1.0 / (a + 1.0) for a in powers)
    log_m = math.lgamma(1.0 + n / p) - math.lgamma(1.0 + (n + sum(powers)) / p)
    log_m += sum(math.lgamma((1.0 + a) / p) - math.lgamma(1.0 / p) for a in powers)
    return math.exp(log_m)


def _boundary_var(n: int, p: float) -> float:
    """Var |u|^2 for u = x / g(x) on the boundary of B_p^n, x uniform in B_p^n.

    (|u_1|^p, ..., |u_n|^p) is Dirichlet(1/p, ..., 1/p), so E prod |u_i|^a_i is
    Gamma(n/p) / Gamma((n + sum a)/p) * prod Gamma((1+a_i)/p) / Gamma(1/p).
    On the cube u is +-1 in one coordinate and uniform in [-1, 1] in the
    other n - 1, so Var |u|^2 = (n - 1) Var U^2 = (n - 1) 4/45.
    """
    if math.isinf(p):
        return (n - 1) * 4.0 / 45.0

    def mom(*powers):
        return _cone_moment(n, p, powers)

    return n * mom(4) + n * (n - 1) * mom(2, 2) - (n * mom(2)) ** 2


def _cone_moment(n: int, p: float, powers) -> float:
    """E prod |u_i|^a_i, a_i = powers (the rest 0), for u on the boundary of B_p^n.

    (|u_1|^p, ..., |u_n|^p) is Dirichlet(1/p, ..., 1/p), which gives
    Gamma(n/p) / Gamma((n + sum a)/p) * prod Gamma((1+a_i)/p) / Gamma(1/p).
    """
    log_m = math.lgamma(n / p) - math.lgamma((n + sum(powers)) / p)
    log_m += sum(math.lgamma((1.0 + a) / p) - math.lgamma(1.0 / p) for a in powers)
    return math.exp(log_m)


def _pball_variances(n: int, p: float):
    """(V_pair, V_all, V_rb): per-sample variances of three phi estimators on B_p^n.

    x is uniform in B_p^n and y in B_q^n, 1/p + 1/q = 1.  Only even index
    patterns survive on these 1-unconditional bodies, so with m = E x_1^2:
      V_pair = n E x_1^4 E y_1^4 + 3n(n-1) E x_1^2 x_2^2 E y_1^2 y_2^2 - phi^2
    is Var <x, y>^2, and the all-pairs estimator tr(S_x S_y) has variance
    V_all / M to leading order, V_all = m_q^2 Var|x|^2 + m_p^2 Var|y|^2 with
    Var|x|^2 = n E x_1^4 + n(n-1) E x_1^2 x_2^2 - (n m_p)^2.  Built on the
    boundary points u = x / g(x) and v, with S = c (1/M) sum u u^T and
    c = n/(n+2) = E g^2, it has V_rb = c^2 (m_q^2 Var|u|^2 + m_p^2 Var|v|^2).
    """
    q = math.inf if p == 1.0 else 1.0 if math.isinf(p) else p / (p - 1.0)
    sides = []
    for r in (p, q):
        sides.append((_pball_moment(n, r, (2,)), _pball_moment(n, r, (4,)),
                      _pball_moment(n, r, (2, 2))))
    (mp, x4, x22), (mq, y4, y22) = sides
    phi = n * mp * mq
    v_pair = n * x4 * y4 + 3 * n * (n - 1) * x22 * y22 - phi**2
    var_x = n * x4 + n * (n - 1) * x22 - (n * mp) ** 2
    var_y = n * y4 + n * (n - 1) * y22 - (n * mq) ** 2
    c = n / (n + 2.0)
    v_rb = c**2 * (mq**2 * _boundary_var(n, p) + mp**2 * _boundary_var(n, q))
    return v_pair, mq**2 * var_x + mp**2 * var_y, v_rb


def _named_profile_v_rb(n: int, big_p: float) -> float:
    """V_rb for the named profile pball:P in dimension n, [-1, 1] x_P B_2^{n-1}.

    Its boundary point is (b^{1/P} e, (1 - b)^{1/P} y) with b ~ Beta(1/P,
    (n-1)/P), e = +-1 and y uniform on S^{n-2}, so the moments of u_t^2 and
    |u_y|^2 are Beta moments.  M_K = c diag(E u_t^2, E |u_y|^2 / (n-1), ...),
    c = n/(n+2), so u^T M_K° u = a u_t^2 + b |u_y|^2, and V_rb is c^2 times
    the sum of that variance and the polar side's.  The polar is the profile
    at the dual exponent.
    """
    c = n / (n + 2.0)
    moments = []
    for r in (big_p, big_p / (big_p - 1.0)):
        a, b = 1.0 / r, (n - 1.0) / r

        def mom(i, j, a=a, b=b, r=r):  # E (u_t^2)^i (|u_y|^2)^j
            log_m = math.lgamma(a + 2 * i / r) + math.lgamma(b + 2 * j / r)
            log_m += math.lgamma(a + b) - math.lgamma(a + b + 2 * (i + j) / r)
            return math.exp(log_m - math.lgamma(a) - math.lgamma(b))

        moments.append(mom)

    def form_var(mom, other):  # Var(a u_t^2 + b |u_y|^2), (a, b) from the other side's M
        a, b = c * other(1, 0), c * other(0, 1) / (n - 1)
        return (a * a * (mom(2, 0) - mom(1, 0) ** 2) + b * b * (mom(0, 2) - mom(0, 1) ** 2)
                + 2 * a * b * (mom(1, 1) - mom(1, 0) * mom(0, 1)))

    mx, my = moments
    return c**2 * (form_var(mx, my) + form_var(my, mx))


def _simplex_v_rb(n: int) -> float:
    """V_rb for the regular simplex in dimension n, whose polar is -n times it.

    The boundary point is u = sum_j w_j v_j over the n vertices of a uniform
    facet, w ~ Dirichlet(1, ..., 1), and <v_i, v_j> = -1/n, so |u|^2 =
    (1 + 1/n) sum w_j^2 - 1/n, with E sum w^2 = 2/(n+1) and
    E (sum w^2)^2 = 4(n+5)/((n+1)(n+2)(n+3)).  E u u^T = I/n^2 by symmetry
    and the polar's point is -n u, so M_K = c I/n^2, M_K° = c I and
    V_rb = c^2 (c^2 Var|u|^2 + (c/n^2)^2 n^4 Var|u|^2) = 2 c^4 Var|u|^2.
    """
    var_sum = 4.0 * (n + 5) / ((n + 1) * (n + 2) * (n + 3)) - 4.0 / (n + 1) ** 2
    var_sq = (1.0 + 1.0 / n) ** 2 * var_sum
    return 2.0 * (n / (n + 2.0)) ** 4 * var_sq


@pytest.fixture
def pball_variances():
    return _pball_variances


@pytest.fixture
def body_v_rb():
    """V_rb of the named profile pball:3 at n = 4 and the simplex at n = 3."""
    return {"pball:3-4": _named_profile_v_rb(4, 3.0), "simplex-3": _simplex_v_rb(3)}


@pytest.fixture
def cone_moment():
    return _cone_moment


@pytest.fixture
def boundary_var():
    return _boundary_var


@pytest.fixture
def slice_volume():
    return _slice_volume


@pytest.fixture
def f_factor_loop():
    return _f_factor_loop
