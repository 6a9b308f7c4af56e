"""Monotonicity-machinery tests.

Frozen oracles, each derived by hand from polygamma series constants before
the implementation was written (so they are independent of it):

  * F(1/4, 2) = 4[psi(1) - psi(3)] - 2[psi(1/2) - psi(3/2)] = -6 + 4 = -2
    exactly (telescoping recurrences);
  * G(1/4, 2) = pi^2/6 - 7/4, from psi'(1) = pi^2/6, psi'(3) = pi^2/6 - 5/4,
    psi'(1/2) = pi^2/2, psi'(3/2) = pi^2/2 - 4 and the digamma telescopes;
  * H(1/2, 2) = 8 psi'(1) + 4 psi''(1) = (4/3) pi^2 - 8 zeta(3);
  * the convexity expression at x = 1: 2 psi'(1) + 4 psi''(1) + psi'''(1)
    = pi^2/3 - 8 zeta(3) + pi^4/15.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarphi import harness
from polarphi.errors import DomainError
from polarphi.exact import f_factor
from polarphi.harness import (
    F_eval,
    G_eval,
    GridReport,
    H_eval,
    default_p_grid,
    f1_eval,
    finite_difference_report,
    monotonicity_report,
    scan_p_argmax,
    xsq_trigamma_convexity,
)

ZETA3 = 1.2020569031595942854


def test_F_frozen_oracle():
    assert abs(F_eval(0.25, 2.0) + 2.0) <= 1e-12


def test_G_frozen_oracle():
    ref = math.pi**2 / 6.0 - 1.75
    assert abs(G_eval(0.25, 2.0) - ref) <= 1e-13
    assert abs(ref + 0.10506593315177382) <= 1e-15  # the frozen decimal


def test_H_frozen_oracle():
    ref = (4.0 / 3.0) * math.pi**2 - 8.0 * ZETA3
    assert abs(H_eval(0.5, 2.0) - ref) <= 1e-12
    assert abs(ref - 3.543017309509057) <= 1e-14  # the frozen decimal


def test_convexity_frozen_oracle():
    ref = math.pi**2 / 3.0 - 8.0 * ZETA3 + math.pi**4 / 15.0
    assert abs(xsq_trigamma_convexity(1.0) - ref) <= 1e-12
    assert abs(ref - 0.16735231068653) <= 1e-13


def test_f1_endpoints_and_midpoint():
    # x = 1/2 is p = 2; endpoints are the dual pair {1, inf} with equal value
    assert abs(f1_eval(0.5, 1.0, 2.0) - 9.0 / 16.0) <= 1e-12
    assert f1_eval(0.0, 1.0, 2.0) == f_factor(1.0, 2.0, math.inf)
    assert f1_eval(1.0, 1.0, 2.0) == f_factor(1.0, 2.0, 1.0)
    assert abs(f1_eval(0.0, 1.0, 2.0) - f1_eval(1.0, 1.0, 2.0)) <= 1e-15


def test_f1_symmetry_about_half():
    for y1, y2 in ((1.0, 2.0), (2.0, 3.0), (2.5, 7.5), (5.0, 20.0)):
        for x in np.linspace(0.02, 0.48, 12):
            a = f1_eval(float(x), y1, y2)
            b = f1_eval(1.0 - float(x), y1, y2)
            assert abs(a - b) <= 1e-12 * max(a, b), (x, y1, y2)


def test_G_antisymmetry_H_symmetry():
    for x in (0.1, 0.25, 0.4):
        for y in (0.5, 2.0, 8.0, 30.0):
            g1, g2 = G_eval(x, y), G_eval(1.0 - x, y)
            assert abs(g1 + g2) <= 1e-10 * max(abs(g1), abs(g2), 1.0)
            h1, h2 = H_eval(x, y), H_eval(1.0 - x, y)
            assert abs(h1 - h2) <= 1e-10 * max(abs(h1), abs(h2))


def test_G_sign_split():
    for y in (0.25, 1.0, 4.0, 16.0):
        for x in (0.05, 0.2, 0.45):
            assert G_eval(x, y) < 0.0, (x, y)
            assert G_eval(1.0 - x, y) > 0.0, (x, y)


def test_monotonicity_report_passes():
    rep = monotonicity_report()
    assert rep.passed, rep.violations[:5]
    assert rep.max_residual < -1e-12  # strictly inside, no ties


def test_finite_difference_report_passes():
    rep = finite_difference_report()
    assert rep.passed, rep.violations[:5]
    assert rep.max_residual <= 1e-5


def test_scan_argmax_defaults():
    for n in (2, 3, 5):
        rep = scan_p_argmax(n)
        assert rep.passed, (n, rep.violations[:5])
        assert rep.extras["argmax_p"] == 2.0
        assert abs(rep.extras["phi_at_2"] - n / (n + 2.0) ** 2) <= 1e-12


def test_scan_records_a_losing_argmax_once(monkeypatch):
    # an exponent that beats p = 2 is one violation, whether or not it is
    # also the argmax
    real = harness.phi_pball

    def phi_pball(n, p):
        bd = real(n, p)
        return replace(bd, phi=bd.phi + 0.01) if p == 3.0 else bd

    monkeypatch.setattr(harness, "phi_pball", phi_pball)
    rep = scan_p_argmax(3, [1.0, 2.0, 3.0, math.inf])
    assert rep.extras["argmax_p"] == 3.0
    assert rep.violations == [(3.0, rep.values[2])]
    assert not rep.passed


def test_scan_grid_preconditions():
    with pytest.raises(DomainError):
        scan_p_argmax(3, [1.0, 2.0, 4.0])  # no inf
    with pytest.raises(DomainError):
        scan_p_argmax(3, [1.0, 4.0, math.inf])  # no 2
    with pytest.raises(DomainError):
        scan_p_argmax(3, [2.0, 4.0, math.inf])  # no 1
    # at n = 1 every exponent gives the interval's 1/9 and ties with p = 2;
    # the strict maximum is claimed for n >= 2 only
    with pytest.raises(DomainError, match="got 1$"):
        scan_p_argmax(1)


def test_default_p_grid_contents():
    grid = default_p_grid()
    assert 1.0 in grid and 2.0 in grid and math.inf in grid
    assert len(grid) >= 64
    assert grid == sorted(grid)


def test_grid_report_passes_when_it_has_no_violations():
    # max_residual and tolerance are reported numbers; the violations judge
    good = GridReport("d", [1.0], [0.0], [], max_residual=1.0, tolerance=1e-9)
    bad = GridReport("d", [1.0], [0.0], [("x", 1.0)], max_residual=0.0, tolerance=1e-9)
    assert good.passed and not bad.passed


def _nan_at(monkeypatch, name, point):
    """Make harness.<name> return NaN at one argument tuple."""
    real = getattr(harness, name)

    def patched(*args):
        return math.nan if args == point else real(*args)

    monkeypatch.setattr(harness, name, patched)


def _nan_violations(rep):
    return [v for _, v in rep.violations if math.isnan(v)]


def test_scan_counts_a_nan_phi_as_a_violation(monkeypatch):
    real = harness.phi_pball
    monkeypatch.setattr(
        harness, "phi_pball",
        lambda n, p: replace(real(n, p), phi=math.nan) if p == 3.0 else real(n, p),
    )
    rep = scan_p_argmax(3, [1.0, 2.0, 3.0, math.inf])
    assert not rep.passed
    assert [p for p, _ in rep.violations] == [3.0]
    assert math.isnan(rep.max_residual)


def test_scan_argmax_skips_nan_values(monkeypatch):
    # np.argmax returns the first NaN's index: with phi NaN at p = 3 the scan
    # named p = 3 as the argmax.  The argmax is taken over the numbers, and
    # is NaN when there are none
    real = harness.phi_pball
    nan_at = {3.0}
    monkeypatch.setattr(
        harness, "phi_pball",
        lambda n, p: replace(real(n, p), phi=math.nan) if p in nan_at else real(n, p),
    )
    grid = [1.0, 2.0, 3.0, math.inf]
    assert scan_p_argmax(3, grid).extras["argmax_p"] == 2.0
    nan_at.update(grid)
    rep = scan_p_argmax(3, grid)
    assert math.isnan(rep.extras["argmax_p"]) and not rep.passed


def test_monotonicity_counts_a_late_nan_as_a_violation(monkeypatch):
    # one F value deep in the sweep, long after the first check
    _nan_at(monkeypatch, "F_eval", (float(harness._X_GRID[-1]), float(harness._Y_GRID[16])))
    rep = monotonicity_report()
    assert not rep.passed
    assert len(_nan_violations(rep)) == len(rep.violations) == 2  # both neighbouring steps
    assert math.isnan(rep.max_residual)


def test_finite_differences_count_a_nan_as_a_violation(monkeypatch):
    _nan_at(monkeypatch, "G_eval", (0.75, 8.0))
    rep = finite_difference_report()
    assert not rep.passed
    assert rep.violations and len(_nan_violations(rep)) == len(rep.violations)
    assert math.isnan(rep.max_residual)


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        f1_eval(-0.1, 1.0, 2.0)
    with pytest.raises(DomainError):
        F_eval(0.0, 2.0)
    with pytest.raises(DomainError):
        F_eval(0.5, -1.0)
    with pytest.raises(DomainError):
        G_eval(1.0, 2.0)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.1, max_value=40.0),
)
def test_G_antisymmetry_property(x, y):
    g1, g2 = G_eval(x, y), G_eval(1.0 - x, y)
    assert abs(g1 + g2) <= 1e-9 * max(abs(g1), abs(g2), 1.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.02, max_value=0.98))
def test_f1_symmetry_property(x):
    a = f1_eval(x, 2.0, 3.0)
    b = f1_eval(1.0 - x, 2.0, 3.0)
    assert abs(a - b) <= 1e-11 * max(a, b)
