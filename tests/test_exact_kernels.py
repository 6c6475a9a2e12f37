"""The exact kernels return exactly the rationals of the paper's formulas:
the integer base series against the term-by-term Fraction loop, polynomial
evaluation against sum(c * z**e), and the kernel ODE recurrence of the
derivative evaluator against the prefactor polynomials.  Equality is ``==``."""

import math
import random
from fractions import Fraction

import pytest

from besstruve import basefn
from besstruve.bessel_deriv import MAX_DERIV_ORDER, p_polys
from besstruve.evaluation import ConvergenceError, DomainError, ode_coefficients
from besstruve.exact import gamma_half_rational
from besstruve.laurent import LaurentPoly
from besstruve.struve_deriv import MAX_SIGMA_ORDER, sigma_polys_composed

_HALF = Fraction(1, 2)

NUS = [-40, -5, -2, -1, 0, 1, 5, 30, 64]
TINY_EXPS = [-70, -80, -200, -400]
_rng = random.Random(20260417)
ZS = [0.0, 5e-324, -5e-324, 1e-3, -1e-3, 0.4999, -0.4999, 0.5, -0.5, 50.0, -50.0]
ZS += [_rng.uniform(-50.0, 50.0) for _ in range(4)] + [_rng.uniform(-1.0, 1.0) for _ in range(2)]


# -- reference: the Fraction loop the integer kernels replaced ---------------


def _sum_series(t0, ratio, tiny, k_min):
    total = t0
    t = t0
    k = 0
    while True:
        t = t * ratio(k)
        k += 1
        if k >= k_min and abs(t) < tiny and abs(ratio(k)) <= _HALF:
            return total, 2 * abs(t)
        total += t
        if k > 5000:
            raise ConvergenceError("base function series did not converge")


def _ref_j_sum(nu, zf, tiny_exp):
    if zf == 0:
        return (Fraction(1), Fraction(0)) if nu == 0 else (Fraction(0), Fraction(0))
    q = zf * zf / 4
    t0 = (zf / 2) ** nu / math.factorial(nu)
    return _sum_series(
        t0, lambda k: -q / ((k + 1) * (k + 1 + nu)), Fraction(1, 2 ** (-tiny_exp)), 0
    )


def _ref_h_pi_sum(nu, zf, tiny_exp):
    if zf == 0:
        if nu >= 0:
            return Fraction(0), Fraction(0)
        if nu == -1:
            return Fraction(2), Fraction(0)
        raise DomainError(f"H_{nu}(z) is singular at z = 0")
    q = zf * zf / 4
    t0 = (zf / 2) ** (nu + 1) / (gamma_half_rational(1) * gamma_half_rational(1 + nu))

    def ratio(k):
        return -q / ((k + Fraction(3, 2)) * (k + nu + Fraction(3, 2)))

    return _sum_series(t0, ratio, Fraction(1, 2 ** (-tiny_exp)), max(0, -nu))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError:
        return DomainError


@pytest.mark.parametrize("tiny_exp", TINY_EXPS)
def test_j_sum_equals_fraction_loop(tiny_exp):
    for nu in (n for n in NUS if n >= 0):
        for z in ZS:
            zf = Fraction(z)
            got = basefn._j_sum_exact.__wrapped__(nu, zf, tiny_exp)
            assert got == _ref_j_sum(nu, zf, tiny_exp), (nu, z)


@pytest.mark.parametrize("tiny_exp", TINY_EXPS)
def test_h_pi_sum_equals_fraction_loop(tiny_exp):
    for nu in NUS:
        for z in ZS:
            zf = Fraction(z)
            got = _outcome(basefn._h_pi_sum_exact.__wrapped__, nu, zf, tiny_exp)
            assert got == _outcome(_ref_h_pi_sum, nu, zf, tiny_exp), (nu, z)


# -- polynomial evaluation ----------------------------------------------------


def _termwise(poly, zf):
    return sum((c * zf**e for e, c in poly.terms), Fraction(0))


POLYS = [
    LaurentPoly.zero(),
    LaurentPoly.constant(Fraction(-7, 3)),
    LaurentPoly.from_dict({-1: Fraction(1, 3), -4: Fraction(-5, 8), -9: 11}),
    LaurentPoly.from_dict({0: Fraction(2, 9), 2: -1, 7: Fraction(3, 1024)}),
    LaurentPoly.from_dict({-6: Fraction(1, 5), -1: 3, 0: Fraction(-1, 6), 3: Fraction(9, 7)}),
    LaurentPoly.from_dict({-3: Fraction(-1, 12), 4: Fraction(5, 3)}, pi_power=-1),
    LaurentPoly.from_dict({2: Fraction(1, 3), 5: -2}),
]


def test_eval_rational_equals_termwise():
    zfs = [Fraction(z) for z in ZS] + [Fraction(1, 3), Fraction(-22, 7)]
    for poly in POLYS:
        for zf in zfs:
            if zf == 0 and any(e < 0 for e in poly.exponents()):
                with pytest.raises(ZeroDivisionError):
                    poly.eval_rational(zf)
                continue
            assert poly.eval_rational(zf) == _termwise(poly, zf), (poly, zf)


# -- the kernel ODE recurrence against the paper's prefactor polynomials ------

ODE_ZS = [0.5, -0.5, 1.0, 2.5, 3.7, 12.25, 49.5, -49.5, 50.0]
ODE_ZS += [_rng.uniform(-50.0, 50.0) for _ in range(5)]  # full-mantissa floats


def _check_ode_tie(zf):
    a, b = zf.numerator, zf.denominator
    w = 2 / zf
    for k in range(MAX_DERIV_ORDER + 1):
        v1, v0, v2 = ode_coefficients(k, a, b, 0)
        scale, sign, form = Fraction(b, a ** (k + 1)), (-1) ** k, p_polys(k)
        assert v1 * scale == sign * form.p1.eval_rational(zf), k
        assert v0 * scale == -sign * form.p0.eval_rational(zf), k
        assert v2 == 0, k
    for k in range(MAX_SIGMA_ORDER + 1):
        v1, v0, v2 = ode_coefficients(k, a, b, 2)
        scale, sign, form = Fraction(b, a ** (k + 1)), (-1) ** k, sigma_polys_composed(k)
        assert v1 * scale == sign * form.sigma1.eval_rational(zf) * w ** (k + 1), k
        assert v0 * scale == sign * form.sigma0.eval_rational(zf) * w**k, k
        assert v2 * scale == sign * form.sigma2.eval_rational(zf) * w ** (k - 1), k


def test_ode_recurrence_equals_prefactor_polys():
    """b V_i / a^(k+1) is the coefficient of B_i in d^k/dz^k of the kernel:
    (-1)^k p1 and -(-1)^k p0 for J1(z)/z; the sigma1, sigma0 and sigma2
    terms for pi H1(z)/z."""
    for z in ODE_ZS:
        _check_ode_tie(Fraction(z))
