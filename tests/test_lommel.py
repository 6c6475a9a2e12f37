"""Reduction polynomials: reference table, symbolic identities, numerics."""

from fractions import Fraction

import pytest

import besstruve as bt
from besstruve.evaluation import DomainError
from besstruve.exact import pochhammer
from besstruve.laurent import LaurentPoly
from besstruve.lommel import c_poly, hyp2f3_direct


def test_c_poly_seeds_and_examples():
    assert c_poly(0, 7) == LaurentPoly.constant(1)
    assert c_poly(1, 5) == LaurentPoly.from_dict({-1: 8})
    assert c_poly(2, 4) == LaurentPoly.from_dict({-2: 24, 0: -1})
    assert c_poly(-1, 1).is_zero


def test_r0_examples():
    assert bt.r0_poly(2) == LaurentPoly.constant(1)
    assert bt.r0_poly(4) == LaurentPoly.from_dict({-2: 24, 0: -1})
    assert bt.r0_poly(7) == LaurentPoly.from_dict({-5: 23040, -3: -1920, -1: 24})


def test_r1_examples():
    assert bt.r1_poly(1) == LaurentPoly.constant(1)
    assert bt.r1_poly(3) == LaurentPoly.from_dict({-2: 8, 0: -1})
    assert bt.r1_poly(8) == LaurentPoly.from_dict(
        {-7: 645120, -5: -138240, -3: 4800, -1: -32}
    )


def test_closed_forms_equal_recurrence_wide():
    for nu in range(2, 62):
        assert bt.r0_poly(nu) == c_poly(nu - 2, nu)
        assert bt.r1_poly(nu) == c_poly(nu - 1, nu)


def test_reduced_2f3_trivial():
    assert bt.reduced_2f3_poly(0, 5) == LaurentPoly.constant(1)
    assert bt.reduced_2f3_poly(1, 4) == LaurentPoly.constant(1)


def test_reduced_2f3_direct_summation_oracle():
    # j=2, nu=4: direct hypergeometric summation gives 1 - z^2/24
    direct = hyp2f3_direct(2, 4)
    assert direct == LaurentPoly.from_dict({0: 1, 2: Fraction(-1, 24)})
    assert bt.reduced_2f3_poly(2, 4) == direct


def test_reduced_2f3_identity_symbolic():
    for nu in range(2, 21):
        for j in range(0, nu - 1):
            pre = LaurentPoly.from_dict(
                {-j: Fraction(-2) ** j * pochhammer(Fraction(1 - nu), j)}
            )
            assert c_poly(j, nu) == pre * bt.reduced_2f3_poly(j, nu), (j, nu)
            assert bt.reduced_2f3_poly(j, nu) == hyp2f3_direct(j, nu), (j, nu)


def test_bessel_reduce_examples():
    assert bt.bessel_reduce(2, 1.5) == pytest.approx(bt.bessel_jn(2, 1.5).value, abs=1e-11)
    assert bt.bessel_reduce(5, 3.0) == pytest.approx(bt.bessel_jn(5, 3.0).value, abs=1e-10)
    z = 2.0
    assert bt.bessel_reduce(2, z) == pytest.approx(
        (2 / z) * bt.bessel_j1(z).value - bt.bessel_j0(z).value, abs=1e-12
    )


def test_bessel_reduce_grid():
    for nu in range(2, 11):
        for z in (0.5, 1.0, 2.0, 5.0, 8.0):
            a = bt.bessel_reduce(nu, z)
            b = bt.bessel_jn(nu, z).value
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b)), (nu, z)


def test_bessel_reduce_domain():
    with pytest.raises(DomainError):
        bt.bessel_reduce(2, 1e-8)
    with pytest.raises(DomainError):
        bt.bessel_reduce(1, 1.0)


def test_poly_preconditions():
    with pytest.raises(DomainError):
        bt.r0_poly(1)
    with pytest.raises(DomainError):
        bt.r1_poly(0)
    with pytest.raises(DomainError):
        bt.reduced_2f3_poly(3, 4)
    with pytest.raises(DomainError):
        c_poly(81, 5)
