"""Series evaluation of the two moment integrals against the oracles."""

import math

import mpmath
import pytest

import besstruve as bt
from besstruve import IntegralRequest
from besstruve.evaluation import ConvergenceError, DomainError, EvalConfig
from besstruve.integrals import _weights, truncation_bound

CFG = EvalConfig(abs_tol=1e-10)

# Oracle regression constants (adaptive quadrature at tol 1e-13).
S_2_1 = 0.11723211862393954
C_2_1 = 0.11449482650904545


def test_s_trivial_zeros():
    assert bt.s_integral(IntegralRequest(0.0, 3.0, CFG)).value == 0.0
    assert bt.s_integral(IntegralRequest(3.0, 0.0, CFG)).value == 0.0


def test_s_regression_point():
    r = bt.s_integral(IntegralRequest(2.0, 1.0, CFG))
    assert r.value == pytest.approx(S_2_1, abs=1e-10)
    assert r.terms_used >= 2


def test_c_trivial_and_regression():
    r = bt.c_integral(IntegralRequest(0.0, 0.0, CFG))
    assert r.value == pytest.approx(1 / 3, abs=1e-14)
    r = bt.c_integral(IntegralRequest(2.0, 1.0, CFG))
    assert r.value == pytest.approx(C_2_1, abs=1e-10)


def test_c_zeta_zero_is_first_derivative():
    z = 1.0
    expected = (math.pi / 2) * (bt.struve_h0(z).value / z - 2 * bt.struve_h1(z).value / z**2)
    r = bt.c_integral(IntegralRequest(z, 0.0, CFG))
    assert r.value == pytest.approx(expected, abs=1e-11)
    assert r.value == pytest.approx(bt.quad_defining_c(z, 0.0, 1e-13), abs=1e-11)


def test_symmetries():
    a = bt.s_integral(IntegralRequest(2.0, 1.0, CFG)).value
    assert bt.s_integral(IntegralRequest(-2.0, 1.0, CFG)).value == -a
    assert bt.s_integral(IntegralRequest(2.0, -1.0, CFG)).value == -a
    assert bt.s_integral(IntegralRequest(-2.0, -1.0, CFG)).value == a
    b = bt.c_integral(IntegralRequest(2.0, 1.0, CFG)).value
    assert bt.c_integral(IntegralRequest(-2.0, -1.0, CFG)).value == b


def test_grid_vs_quadrature():
    cfg = EvalConfig(abs_tol=1e-8)
    for z in (0.1, 1.0, 5.0, 10.0):
        for zeta in (0.0, 0.25, 2.0, 5.0):
            rs = bt.s_integral(IntegralRequest(z, zeta, cfg))
            assert rs.value == pytest.approx(
                bt.quad_defining_s(z, zeta, 1e-13), abs=1e-8
            ), ("s", z, zeta)
            rc = bt.c_integral(IntegralRequest(z, zeta, cfg))
            assert rc.value == pytest.approx(
                bt.quad_defining_c(z, zeta, 1e-13), abs=1e-8
            ), ("c", z, zeta)


def test_error_estimate_honest():
    cfg = EvalConfig(abs_tol=1e-8)
    for z in (0.5, 2.0, 10.0):
        for zeta in (0.25, 1.0, 5.0):
            rs = bt.s_integral(IntegralRequest(z, zeta, cfg))
            actual = abs(rs.value - bt.quad_defining_s(z, zeta, 1e-13))
            assert actual <= 10 * rs.abs_err_estimate + 1e-13


def test_term_decay_bound():
    # every series term obeys |w_K * d_K| <= |w_K| * truncation_bound(order)
    z, zeta = 2.0, 5.0
    ws = _weights("s", zeta, 10)
    for kap in range(10):
        term = abs(ws[kap] * bt.deriv_j1z(4 * kap + 3, z, CFG).value)
        assert term <= abs(ws[kap]) * truncation_bound(4 * kap + 3) * (1 + 1e-12)
    wc = _weights("c", zeta, 10)
    for kap in range(10):
        term = abs(wc[kap] * bt.deriv_h1z(4 * kap + 1, z, CFG).value)
        assert term <= abs(wc[kap]) * truncation_bound(4 * kap + 1) * (1 + 1e-12)


def test_truncation_bound_values():
    assert truncation_bound(0) == 0.5
    assert truncation_bound(3) == pytest.approx(4 / (15 * math.pi), rel=1e-15)
    for k in range(0, 51):
        assert truncation_bound(k + 1) < truncation_bound(k)
    # the bound coincides with the at-zero amplitudes of the two families
    for m in range(0, 10):
        assert truncation_bound(2 * m) == pytest.approx(
            abs(bt.deriv_j1z_at_zero(2 * m)), rel=1e-15
        )
        assert truncation_bound(2 * m + 1) == pytest.approx(
            abs(bt.deriv_h1z_at_zero(2 * m + 1)), rel=1e-15
        )


def test_convergence_failure_reported():
    with pytest.raises(ConvergenceError):
        bt.c_integral(IntegralRequest(1.0, 5.0, EvalConfig(abs_tol=1e-12)))
    with pytest.raises(ConvergenceError):
        bt.s_integral(IntegralRequest(1.0, 30.0, EvalConfig(abs_tol=1e-10)))


def test_domain_validation():
    with pytest.raises(DomainError):
        IntegralRequest(51.0, 0.0, CFG)
    with pytest.raises(DomainError):
        IntegralRequest(0.0, math.nan, CFG)


def mp_s_integral(z, zeta):
    """30-digit S(z, zeta) from its defining integral."""
    with mpmath.workdps(30):
        z, zeta = mpmath.mpf(z), mpmath.mpf(zeta)

        def f(t):
            c, s = mpmath.cos(t), mpmath.sin(t)
            return c * s * s * mpmath.sin(z * c) * mpmath.sin(zeta * c * c)

        return mpmath.quad(f, [0, mpmath.pi / 2])


def test_closed_form_path_propagates():
    # the high-order terms cancel heavily at z = 1; the exact closed form
    # still carries every one of them, and the tag says so
    r = bt.s_integral(IntegralRequest(1.0, 5.0, EvalConfig(abs_tol=1e-8)))
    assert r.path == "closed_form"
    assert abs(r.value - mp_s_integral(1.0, 5.0)) <= r.abs_err_estimate <= 1e-8
