"""Higher derivatives of H1(z)/z: the sigma machinery and its oracles."""

import math
from fractions import Fraction

import pytest

import besstruve as bt
from besstruve import oracle
from besstruve.evaluation import (
    SMALL_Z_THRESHOLD,
    DomainError,
    EvalConfig,
    closed_form,
    taylor_branch,
)
from besstruve.exact import gamma_half_rational, h1z_series_coeff
from besstruve.laurent import LaurentPoly
from besstruve.struve_deriv import _h_pi_sum_exact, s_sum_poly_ascending

CFG = EvalConfig()

# Frozen value of the phase-shifted kernel quadrature at (k=5, z=2).
D5_H_AT_2 = -0.0020093535252292687


def test_neg_order_examples():
    assert bt.neg_order_struve(0, 1.3) == pytest.approx(bt.struve_h0(1.3).value, abs=1e-14)
    assert bt.neg_order_struve(1, 1.0) == pytest.approx(
        2 / math.pi - bt.struve_h1(1.0).value, abs=1e-13
    )
    assert bt.neg_order_struve(2, 1.0) == pytest.approx(
        bt.struve_hn(-2, 1.0).value, abs=1e-11
    )


def test_neg_order_grid():
    for nu in range(0, 9):
        for z in (0.5, 2.0, 5.0):
            a = bt.neg_order_struve(nu, z)
            b = bt.struve_hn(-nu, z).value
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b)), (nu, z)


def test_neg_order_domain():
    with pytest.raises(DomainError):
        bt.neg_order_struve(2, 0.0)
    assert bt.neg_order_struve(1, 0.0) == pytest.approx(2 / math.pi, abs=1e-15)
    with pytest.raises(DomainError):
        bt.neg_order_struve(40, 1e-300)


def test_s_sum_examples():
    assert bt.s_sum_poly(2) == LaurentPoly.from_dict({1: Fraction(2, 3)}, pi_power=-1)
    # order 3 forced by the three-term Struve recurrence: (2/(15 pi)) z^2 + 8/(3 pi)
    assert bt.s_sum_poly(3) == LaurentPoly.from_dict(
        {2: Fraction(2, 15), 0: Fraction(8, 3)}, pi_power=-1
    )


def test_s_sum_leading_coefficient():
    # coefficient of z^(nu-1) equals Gamma(1/2) / (pi Gamma(nu+1/2) 2^(nu-1))
    for nu in range(2, 13):
        expected = Fraction(1, 2 ** (nu - 1)) / gamma_half_rational(nu)
        assert bt.s_sum_poly(nu).coeff(nu - 1) == expected


def test_s_sum_two_routes_agree():
    for nu in range(2, 25):
        assert bt.s_sum_poly(nu) == s_sum_poly_ascending(nu), nu


def test_s_sum_exponent_structure():
    for nu in range(2, 15):
        exps = bt.s_sum_poly(nu).exponents()
        assert max(exps) == nu - 1
        assert all((nu - 1 - e) % 2 == 0 for e in exps)


def test_struve_reduce_examples():
    z = 1.0
    expected = (2 / z) * bt.struve_h1(z).value - bt.struve_h0(z).value + 2 / (3 * math.pi)
    assert bt.struve_reduce(2, z) == pytest.approx(expected, abs=1e-13)
    assert bt.struve_reduce(5, 3.0) == pytest.approx(bt.struve_hn(5, 3.0).value, abs=1e-10)
    assert bt.struve_reduce(2, 0.5) == pytest.approx(bt.struve_hn(2, 0.5).value, abs=1e-11)


def test_struve_reduce_grid():
    for nu in range(2, 11):
        for z in (0.5, 1.0, 2.0, 5.0, 8.0):
            a = bt.struve_reduce(nu, z)
            b = bt.struve_hn(nu, z).value
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b)), (nu, z)


def test_frak_c_trivial_and_anchor():
    assert bt.frak_c(3, 2, 0) == 0
    assert bt.frak_c(7, 4, 0) == 0
    assert bt.frak_c(1, 0, 1) == Fraction(4, 3)


def test_frak_c_against_sympy():
    sp = pytest.importorskip("sympy")

    def reference(k, a, nu):
        total = sp.Integer(0)
        for j in range(a + 1):
            if k - nu - j < 0 or k - 2 * j < 0:
                continue
            inner = sp.Integer(0)
            for i in range(nu):
                if k - nu - j - i < 0:
                    continue
                inner += (
                    sp.Rational((-1) ** i)
                    / sp.factorial(i)
                    * sp.sqrt(sp.pi)
                    * sp.factorial(k - j - i)
                    / (sp.factorial(k - nu - j - i) * sp.gamma(nu + sp.Rational(3, 2) - i))
                )
            total += (
                sp.Rational(-1, 4) ** j
                / sp.factorial(j)
                * sp.factorial(k - nu - j)
                / sp.factorial(k - 2 * j)
                * inner
            )
        return sp.nsimplify(sp.simplify(total))

    for (k, a, nu) in [(1, 0, 1), (5, 3, 1), (5, 3, 2), (7, 4, 3), (9, 5, 4)]:
        ref = reference(k, a, nu)
        got = bt.frak_c(k, a, nu)
        assert sp.Rational(got.numerator, got.denominator) == ref, (k, a, nu)


def test_sigma_composed_anchors():
    f = bt.sigma_polys_composed(0)
    assert f.sigma0.is_zero
    assert f.sigma1 == LaurentPoly.constant(Fraction(1, 2))
    assert f.sigma2.is_zero
    f = bt.sigma_polys_composed(1)
    assert f.sigma0 == LaurentPoly.constant(Fraction(-1, 2))
    assert f.sigma1 == LaurentPoly.constant(Fraction(1, 2))
    assert f.sigma2.is_zero


def test_sigma_explicit_anchor_and_cancellation():
    f = bt.sigma_polys_explicit(1)
    # the delta term -2/(3 pi) must cancel frak_c(1,0,1)/(2 pi) = 2/(3 pi)
    assert f.sigma2.is_zero
    assert f.sigma0 == LaurentPoly.constant(Fraction(-1, 2))
    assert f.sigma1 == LaurentPoly.constant(Fraction(1, 2))


def test_sigma_explicit_equals_composed():
    for k in range(1, 22, 2):
        c = bt.sigma_polys_composed(k)
        e = bt.sigma_polys_explicit(k)
        assert c.sigma0 == e.sigma0, k
        assert c.sigma1 == e.sigma1, k
        assert c.sigma2 == e.sigma2, k


def test_sigma_explicit_rejects_even_k():
    with pytest.raises(DomainError):
        bt.sigma_polys_explicit(2)


def test_sigma_structure():
    for k in range(0, 22):
        f = bt.sigma_polys_composed(k)
        assert f.sigma0.pi_power == 0
        assert f.sigma1.pi_power == 0
        assert f.sigma2.is_zero or f.sigma2.pi_power == -1
        for poly in (f.sigma0, f.sigma1, f.sigma2):
            assert all(e >= 0 and e % 2 == 0 for e in poly.exponents())


def test_prefactor_identity_with_bessel_side():
    for k in range(0, 21):
        s = bt.sigma_polys_composed(k)
        p = bt.p_polys(k)
        assert p.p1 == s.sigma1.scale(Fraction(2) ** (k + 1)).shift(-(k + 1)), k
        assert p.p0 == -s.sigma0.scale(Fraction(2) ** k).shift(-k), k


def test_sigma_composed_validated_by_quadrature():
    for z in (1.0, 3.0):
        r = bt.deriv_h1z(2, z, CFG)
        assert r.value == pytest.approx(oracle.quad_deriv_kernel("struve", 2, z), abs=1e-11)


def test_negative_order_chain_numeric():
    # Direct float evaluation of the expansion over H_{k+1-i} values
    # (before any reduction), checked against the assembled closed form.
    def direct(k, z):
        tot = 0.0
        for i in range(k // 2 + 1):
            tot += (
                2
                * (-1) ** i
                / (math.factorial(i) * math.factorial(k - 2 * i))
                * bt.struve_hn(k + 1 - i, z).value
                / (2 * z) ** (i + 1)
            )
        sub = 0.0
        for j in range(k // 2 + 1):
            inner = 0.0
            for i in range(j + 1):
                if k - 2 * i < 0:
                    continue
                inner += (0.5) ** (2 * i + 1) / (
                    math.factorial(i) * math.factorial(k - 2 * i) * math.gamma(i + 0.5 - j)
                )
            sub += (-1) ** j * (z / 2) ** (k - 1 - 2 * j) / math.gamma(k + 1.5 - j) * inner
        return math.factorial(k) * (-1) ** k * (tot - sub)

    for k in range(1, 9):
        for z in (1.0, 3.0):
            assert bt.deriv_h1z(k, z, CFG).value == pytest.approx(direct(k, z), abs=1e-9)


def test_deriv_h1z_examples():
    assert bt.deriv_h1z(1, 0.0, CFG).value == pytest.approx(2 / (3 * math.pi), abs=1e-15)
    assert bt.deriv_h1z(1, 0.0, CFG).path == "taylor"
    assert bt.deriv_h1z(2, 0.0, CFG).value == 0.0
    r = bt.deriv_h1z(5, 2.0, CFG)
    assert r.value == pytest.approx(D5_H_AT_2, abs=1e-12)
    assert r.value == pytest.approx(oracle.quad_deriv_kernel("struve", 5, 2.0), abs=1e-12)


def test_deriv_h1z_vs_quadrature_grid():
    for k in range(0, 14):
        for z in (1.0, 2.0, 5.0, 10.0):
            r = bt.deriv_h1z(k, z, CFG)
            o = oracle.quad_deriv_kernel("struve", k, z)
            assert abs(r.value - o) <= 1e-8 * max(1e-12, abs(o)), (k, z, r.path)


def test_deriv_h1z_path_boundary():
    z = SMALL_Z_THRESHOLD
    for k in range(0, 11):
        tv = taylor_branch(k, z, CFG, h1z_series_coeff, 1, math.pi).value
        cv = closed_form(k, z, CFG, _h_pi_sum_exact, math.pi, 2).value
        assert abs(tv - cv) <= 1e-9, k


def test_deriv_h1z_at_zero():
    assert bt.deriv_h1z_at_zero(0) == 0.0
    assert bt.deriv_h1z_at_zero(1) == pytest.approx(2 / (3 * math.pi), rel=1e-15)
    assert bt.deriv_h1z_at_zero(3) == pytest.approx(-4 / (15 * math.pi), rel=1e-15)
    m = 40
    a = abs(bt.deriv_h1z_at_zero(2 * m + 1)) * 2 * math.sqrt(math.pi) * m**1.5
    assert 0.85 <= a <= 1.15


def test_domain_errors():
    with pytest.raises(DomainError):
        bt.deriv_h1z(42, 1.0, CFG)
    with pytest.raises(DomainError):
        bt.sigma_polys_composed(42)
    with pytest.raises(DomainError):
        bt.frak_c(5, 6, 1)
    with pytest.raises(DomainError):
        bt.s_sum_poly(1)
