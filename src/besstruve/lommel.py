"""Lommel-type prefactor polynomials and the order reduction for J_nu.

The three-term recurrence

    c(0) = 1,   c(1) = 2(nu-1)/z,
    c(n) = (2(nu-n)/z) c(n-1) - c(n-2)

produces the polynomials that reduce J_nu(z) to a combination of J1 and J0:

    J_nu(z) = r1(nu, z) J1(z) - r0(nu, z) J0(z)

with r1(nu) = c(nu-1) and r0(nu) = c(nu-2).  The closed-form gamma-ratio
sums ``r1_poly``/``r0_poly`` are what the runtime builds its prefactors
from; the recurrence ``c_poly`` is the independent cross-check, and the
test suite verifies both families against it exactly for every order the
runtime uses (nu <= 61), and the reduced terminating-hypergeometric
polynomial likewise.

c(-1) := 0 is forced by the reduction at nu = 1 (J1 = c(0) J1 - c(-1) J0).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .basefn import MAX_ABS_Z, _j_sum_exact
from .evaluation import DomainError
from .exact import (
    gamma_int,
    pochhammer,
    recip_factorial,
    recip_gamma_int,
)
from .laurent import LaurentPoly

MAX_RECURRENCE_DEPTH = 80
MIN_ABS_Z_REDUCE = 1e-6


@lru_cache(maxsize=None)
def c_poly(n: int, nu: int) -> LaurentPoly:
    """The reduction polynomial c(n) for order nu, exact in 1/z.

    Defined for -1 <= n <= 80; c(-1) is identically zero.
    """
    if n == -1:
        return LaurentPoly.zero()
    if not 0 <= n <= MAX_RECURRENCE_DEPTH:
        raise DomainError(f"-1 <= n <= {MAX_RECURRENCE_DEPTH} required, got {n}")
    if n == 0:
        return LaurentPoly.constant(1)
    if n == 1:
        return LaurentPoly.from_dict({-1: Fraction(2 * (nu - 1))})
    prev2 = c_poly(n - 2, nu)
    prev1 = c_poly(n - 1, nu)
    return prev1.scale(2 * (nu - n)).shift(-1) - prev2


@lru_cache(maxsize=None)
def r0_poly(nu: int) -> LaurentPoly:
    """Closed-form gamma-ratio sum for the J0 prefactor, nu >= 2.

    Equals c_poly(nu - 2, nu) exactly.  The sign of each term is (-1)^j;
    printed versions of this sum sometimes carry (-1)^(j+1), which
    contradicts the recurrence seeds, the reduction at nu = 2
    (J2 = (2/z) J1 - J0), and the reference table.
    """
    if nu < 2:
        raise DomainError(f"nu >= 2 required, got {nu}")
    terms = {}
    for j in range(0, _ceil_div(nu - 2, 2) + 1):
        rg = recip_gamma_int(nu - 1 - 2 * j)
        if rg == 0:
            continue
        coeff = (
            gamma_int(nu - j)
            * gamma_int(nu - 1 - j)
            * rg
            * recip_factorial(j)
            * recip_factorial(j + 1)
            * (-1) ** j
            * Fraction(2) ** (nu - 2 - 2 * j)
        )
        terms[-(nu - 2 - 2 * j)] = terms.get(-(nu - 2 - 2 * j), Fraction(0)) + coeff
    return LaurentPoly.from_dict(terms)


@lru_cache(maxsize=None)
def r1_poly(nu: int) -> LaurentPoly:
    """Closed-form gamma-ratio sum for the J1 prefactor, nu >= 1.

    Equals c_poly(nu - 1, nu) exactly.
    """
    if nu < 1:
        raise DomainError(f"nu >= 1 required, got {nu}")
    terms = {}
    for j in range(0, _ceil_div(nu - 1, 2) + 1):
        rg = recip_gamma_int(nu - 2 * j)
        if rg == 0:
            continue
        g = gamma_int(nu - j)
        coeff = (
            g
            * g
            * rg
            * recip_factorial(j) ** 2
            * (-1) ** j
            * Fraction(2) ** (nu - 1 - 2 * j)
        )
        terms[-(nu - 1 - 2 * j)] = terms.get(-(nu - 1 - 2 * j), Fraction(0)) + coeff
    return LaurentPoly.from_dict(terms)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _r0_or_zero(nu: int) -> LaurentPoly:
    # nu = 1 corresponds to c(-1) = 0; the closed form starts at nu = 2.
    if nu == 1:
        return LaurentPoly.zero()
    return r0_poly(nu)


@lru_cache(maxsize=None)
def reduced_2f3_poly(j: int, nu: int) -> LaurentPoly:
    """The terminating 2F3 factor of c(j, nu), reduced to a finite sum in z^2.

    Satisfies, symbolically,

        c_poly(j, nu) == (-2/z)^j (1-nu)_j * reduced_2f3_poly(j, nu)

    for 0 <= j <= nu - 2.  The reduction replaces the hypergeometric series
    with sum_{K=0}^{ceil((j-1)/2)} of gamma-ratio terms in (z/2)^(2K); the
    vanishing reciprocal of Gamma(j+1-2K) trims even-j overcounts.
    """
    if j < 0:
        raise DomainError(f"j >= 0 required, got {j}")
    if j > nu - 2:
        raise DomainError(f"j <= nu - 2 required, got j={j}, nu={nu}")
    prefactor = gamma_int(nu - j) / gamma_int(nu)
    terms = {}
    for kap in range(0, max(0, _ceil_div(j - 1, 2)) + 1):
        rg = recip_gamma_int(j + 1 - 2 * kap)
        if rg == 0:
            continue
        coeff = (
            (-1) ** kap
            * gamma_int(nu - kap)
            * gamma_int(j + 1 - kap)
            * rg
            * recip_gamma_int(kap + nu - j)
            * recip_factorial(kap)
            * Fraction(1, 4**kap)
        )
        terms[2 * kap] = terms.get(2 * kap, Fraction(0)) + prefactor * coeff
    return LaurentPoly.from_dict(terms)


def hyp2f3_direct(j: int, nu: int) -> LaurentPoly:
    """Direct term-by-term summation of the terminating hypergeometric series

        2F3((1-j)/2, -j/2; 1-nu, -j, nu-j; -z^2)

    used as the independent oracle for :func:`reduced_2f3_poly`.
    """
    if j < 0 or j > nu - 2:
        raise DomainError(f"0 <= j <= nu - 2 required, got j={j}, nu={nu}")
    a1 = Fraction(1 - j, 2)
    a2 = Fraction(-j, 2)
    b1 = Fraction(1 - nu)
    b2 = Fraction(-j)
    b3 = Fraction(nu - j)
    terms = {}
    kap = 0
    while True:
        num = pochhammer(a1, kap) * pochhammer(a2, kap)
        if num == 0:
            break
        den = (
            pochhammer(b1, kap)
            * pochhammer(b2, kap)
            * pochhammer(b3, kap)
            * math.factorial(kap)
        )
        terms[2 * kap] = num / den * (-1) ** kap
        kap += 1
    return LaurentPoly.from_dict(terms)


def bessel_reduce(nu: int, z: float) -> float:
    """J_nu(z) evaluated through the order reduction r1*J1 - r0*J0.

    The polynomial values grow like (2/z)^nu and cancel almost completely
    against each other for nu >> |z|, so the dot product is carried out in
    exact rational arithmetic with the J0/J1 series truncated adaptively
    far below the final float precision.
    """
    if nu < 2:
        raise DomainError(f"nu >= 2 required, got {nu}")
    if not math.isfinite(z) or abs(z) > MAX_ABS_Z:
        raise DomainError(f"|z| <= {MAX_ABS_Z} required, got {z}")
    if abs(z) < MIN_ABS_Z_REDUCE:
        raise DomainError(f"|z| >= {MIN_ABS_Z_REDUCE} required near the 1/z poles")
    r1 = r1_poly(nu)
    r0 = _r0_or_zero(nu)
    zf = Fraction(z)
    bound = max(1.0, r1.eval_abs_float(z) + r0.eval_abs_float(z))
    tiny_exp = -70 - max(0, math.ceil(math.log2(bound)))
    j1v, _ = _j_sum_exact(1, zf, tiny_exp)
    j0v, _ = _j_sum_exact(0, zf, tiny_exp)
    exact = r1.eval_rational(zf) * j1v - r0.eval_rational(zf) * j0v
    return float(exact)
