"""Higher derivatives of J1(z)/z: prefactors, evaluation paths, amplitudes."""

import dataclasses
import math
from fractions import Fraction

import mpmath
import pytest

import besstruve as bt
from besstruve import oracle
from besstruve.bessel_deriv import _j_sum_exact, p_polys, p_polys_recurrence
from besstruve.evaluation import (
    SMALL_Z_THRESHOLD,
    DomainError,
    EvalConfig,
    closed_form,
    taylor_branch,
)
from besstruve.exact import j1z_series_coeff
from besstruve.laurent import LaurentPoly

CFG = EvalConfig()

# Frozen value of the phase-shifted kernel quadrature at (k=3, z=2).
D3_J_AT_2 = 0.07970957720201732


def test_p_polys_examples():
    f = p_polys(0)
    assert f.p1 == LaurentPoly.from_dict({-1: 1})
    assert f.p0.is_zero
    f = p_polys(1)
    assert f.p1 == LaurentPoly.from_dict({-2: 2})
    assert f.p0 == LaurentPoly.from_dict({-1: 1})
    f = p_polys(2)
    assert f.p1 == LaurentPoly.from_dict({-3: 6, -1: -1})
    assert f.p0 == LaurentPoly.from_dict({-2: 3})


def test_p_polys_pure_negative_exponents():
    for k in (0, 1, 5, 12, 25):
        f = p_polys(k)
        assert all(e <= -1 for e in f.p1.exponents())
        assert all(e <= -1 for e in f.p0.exponents())


def test_p_polys_cross_derivation_exact():
    for k in range(0, 61):
        a = p_polys(k)
        b = p_polys_recurrence(k)
        assert a.p1 == b.p1 and a.p0 == b.p0, k


def test_deriv_at_zero_values():
    assert bt.deriv_j1z_at_zero(0) == 0.5
    assert bt.deriv_j1z_at_zero(1) == 0.0
    assert bt.deriv_j1z_at_zero(2) == -0.125
    assert bt.deriv_j1z_at_zero(4) == 1 / 16
    # closed formula vs exact rational for a larger order
    m = 9
    expected = math.gamma(m + 0.5) / (2 * math.sqrt(math.pi) * math.factorial(m + 1))
    assert abs(bt.deriv_j1z_at_zero(2 * m)) == pytest.approx(expected, rel=1e-13)


def test_deriv_examples():
    assert bt.deriv_j1z(1, 0.0, CFG).value == 0.0
    assert bt.deriv_j1z(2, 0.0, CFG).value == -0.125
    r = bt.deriv_j1z(3, 2.0, CFG)
    assert r.value == pytest.approx(D3_J_AT_2, abs=1e-12)
    assert r.value == pytest.approx(oracle.quad_deriv_kernel("bessel", 3, 2.0), abs=1e-12)


def test_deriv_vs_quadrature_grid():
    for k in range(0, 16):
        for z in (1.0, 2.0, 5.0, 10.0):
            r = bt.deriv_j1z(k, z, CFG)
            o = oracle.quad_deriv_kernel("bessel", k, z)
            assert abs(r.value - o) <= 1e-8 * max(1e-12, abs(o)), (k, z, r.path)


def mp_deriv_j1z(k, z):
    """30-digit d^k/dz^k [J1(z)/z] from the phase-shifted kernel integral
    (2/pi) int_0^{pi/2} cos^k(t) sin^2(t) cos(z cos t + k pi/2) dt."""
    with mpmath.workdps(30):
        z = mpmath.mpf(z)
        f = lambda t: mpmath.cos(t) ** k * mpmath.sin(t) ** 2 * mpmath.cos(
            z * mpmath.cos(t) + k * mpmath.pi / 2
        )
        return 2 / mpmath.pi * mpmath.quad(f, [0, mpmath.pi / 2])


def test_path_selection():
    assert bt.deriv_j1z(3, 0.1, CFG).path == "taylor"
    assert bt.deriv_j1z(3, 2.0, CFG).path == "closed_form"
    # the two products cancel heavily here, which costs exact arithmetic nothing
    r = bt.deriv_j1z(8, 2.0, EvalConfig(abs_tol=1e-8))
    assert r.path == "closed_form"
    assert abs(r.value - mp_deriv_j1z(8, 2.0)) <= r.abs_err_estimate <= 1e-8


# Inputs whose last bits moved when the coefficients began to come from the
# kernel ODE recurrence (the truncation target followed the tighter scale).
MOVED = [(41, 6.5), (41, 16.25), (43, 9.75), (45, 3.5), (56, 1.75), (56, 14.5)]


@pytest.mark.parametrize("tol", [1e-10, 1e-15])
def test_moved_values_within_rigorous_bound(tol):
    for k, z in MOVED:
        for zs in (z, -z):
            r = bt.deriv_j1z(k, zs, EvalConfig(abs_tol=tol))
            assert r.path == "closed_form"
            assert abs(r.value - mp_deriv_j1z(k, zs)) <= r.abs_err_estimate <= tol, (k, zs)


def test_path_boundary_consistency():
    z = SMALL_Z_THRESHOLD
    for k in range(0, 11):
        tv = taylor_branch(k, z, CFG, j1z_series_coeff, 0, 1.0).value
        cv = closed_form(k, z, CFG, _j_sum_exact, 1.0, 0).value
        assert abs(tv - cv) <= 1e-9, k


def test_amplitude_scaling_window():
    m = 40
    a = abs(bt.deriv_j1z_at_zero(2 * m)) * 2 * math.sqrt(math.pi) * m**1.5
    assert 0.85 <= a <= 1.15


def test_domain_errors():
    with pytest.raises(DomainError):
        bt.deriv_j1z(61, 1.0, CFG)
    with pytest.raises(DomainError):
        bt.deriv_j1z(2, 51.0, CFG)
    with pytest.raises(DomainError):
        p_polys(-1)
    with pytest.raises(DomainError):
        bt.deriv_j1z_at_zero(201)


def test_eval_config_validation():
    for bad in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            EvalConfig(abs_tol=bad)
    # the tolerance is the only setting; the branch threshold and term cap are constants
    assert [f.name for f in dataclasses.fields(EvalConfig)] == ["abs_tol"]
    for name in ("small_z_threshold", "cancellation_guard", "max_terms"):
        with pytest.raises(TypeError):
            EvalConfig(**{name: 1.0})
