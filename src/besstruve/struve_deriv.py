"""Higher derivatives of H1(z)/z and the Struve order reduction.

The Struve reduction mirrors the Bessel one but carries a polynomial
correction s(nu, z):

    H_nu(z) = r1(nu, z) H1(z) - r0(nu, z) H0(z) + s(nu, z),

where every coefficient of s is a rational multiple of 1/pi.  Composing the
negative-order expansion of d^k/dz^k [H1(z)/z] with this reduction, in
exact rational arithmetic, yields

    (-1)^k d^k/dz^k [H1(z)/z] = H0(z) sigma0(k,z) (2/z)^k
                              + H1(z) sigma1(k,z) (2/z)^(k+1)
                              + sigma2(k,z) (2/z)^(k-1)

with sigma0/sigma1 plain even polynomials in z and sigma2 an even
polynomial over pi.  ``sigma_polys_composed`` builds these closed forms for
all orders; ``sigma_polys_explicit`` implements the standalone summation
formulas for the sigmas, which are unambiguous only at odd k, and is kept
as a cross-check.  ``poly`` dumps them and the tests and ``verify`` check
them against the runtime.

``deriv_h1z`` does not build them: it takes a term-wise Taylor branch below
|z| = 0.5 and elsewhere the integer recurrence of the kernel ODE
z h'' + 3 h' + z h = 2/pi, whose coefficients of pi H1, pi H0 and 1 at z
equal the three sigma terms above exactly (see :mod:`besstruve.evaluation`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .basefn import MAX_ABS_Z, _h_pi_sum_exact
from .evaluation import DEFAULT_CONFIG, DomainError, EvalConfig, EvalResult, eval_derivative
from .exact import (
    SQRT_PI,
    SqrtPiRational,
    gamma_exact,
    gamma_half_rational,
    gamma_int,
    h1z_series_coeff,
    recip_factorial,
    recip_gamma,
    recip_gamma_int,
)
from .laurent import LaurentPoly
from .lommel import MIN_ABS_Z_REDUCE, _ceil_div, r0_poly, r1_poly

MAX_SIGMA_ORDER = 41
MAX_AT_ZERO_ORDER = 200
MAX_NEG_ORDER = 40


@dataclass(frozen=True)
class StruveDerivForm:
    """The three sigma polynomials of the k-th derivative of H1(z)/z."""

    k: int
    sigma0: LaurentPoly
    sigma1: LaurentPoly
    sigma2: LaurentPoly


# -- the polynomial correction s(nu, z) --------------------------------------


@lru_cache(maxsize=None)
def s_sum_poly(nu: int) -> LaurentPoly:
    """The reduction correction s(nu, z) for nu >= 2, descending-power route.

    Exact polynomial with pi_power -1 whose exponents run over
    nu-1, nu-3, ..., 3-nu.
    """
    if not 2 <= nu <= 60:
        raise DomainError(f"2 <= nu <= 60 required, got {nu}")
    terms: dict[int, Fraction] = {}
    lead = Fraction(2) ** (2 * nu - 1)
    for j in range(nu - 1):
        jfac = (
            lead
            * gamma_int(nu - j)
            * Fraction(1, 4**j)
            * recip_gamma_int(2 * nu - 2 * j)
        )
        for kap in range(max(0, _ceil_div(j - 1, 2)) + 1):
            rg = recip_gamma_int(j + 1 - 2 * kap)
            if rg == 0:
                continue
            exp = 2 * kap - 2 * j + nu - 1
            coeff = (
                jfac
                * (-1) ** kap
                * gamma_int(nu - kap)
                * gamma_int(j + 1 - kap)
                * rg
                * recip_gamma_int(kap + nu - j)
                * recip_factorial(kap)
                * Fraction(1, 2) ** exp
            )
            terms[exp] = terms.get(exp, Fraction(0)) + coeff
    return LaurentPoly.from_dict(terms, pi_power=-1)


def s_sum_poly_ascending(nu: int) -> LaurentPoly:
    """The same correction built from the ascending-power rearrangement.

    The inner gamma argument must be mu + 5/2 - i (a nu + 5/2 - i here
    breaks the reindexing that produces this arrangement): only then do the
    two routes agree exactly, with the nu = 2 case reproducing the value
    forced by the standard Struve recurrence.
    """
    if not 2 <= nu <= 60:
        raise DomainError(f"2 <= nu <= 60 required, got {nu}")
    terms: dict[int, Fraction] = {}
    for mu in range((nu - 1) // 2):
        exp = nu - 1 - 2 * mu
        coeff = (
            gamma_half_rational(mu)
            / gamma_half_rational(nu - mu)
            * Fraction(1, 2) ** exp
        )
        terms[exp] = terms.get(exp, Fraction(0)) + coeff
    for mu in range(_ceil_div(nu - 1, 2)):
        inner = SqrtPiRational(Fraction(0))
        for i in range(mu + 1):
            inner = inner + (
                gamma_exact(2 * (nu - i))
                * recip_gamma(2 * mu + 5 - 2 * i)
                * recip_gamma(2 * (nu - 1 - mu - i))
                * recip_factorial(i)
                * (-1) ** i
            )
        exp = 3 - nu + 2 * mu
        total = (
            SQRT_PI.reciprocal()
            * inner
            * Fraction(math.factorial(nu - 2 - mu))
            * recip_gamma(2 * (mu + 2))
        )
        terms[exp] = terms.get(exp, Fraction(0)) + total.as_rational_over_pi() * Fraction(1, 2) ** exp
    return LaurentPoly.from_dict(terms, pi_power=-1)


def _s_or_zero(nu: int) -> LaurentPoly:
    # The correction sum is empty below nu = 2.
    if nu < 2:
        return LaurentPoly.zero()
    return s_sum_poly(nu)


# -- negative orders and the order reduction ---------------------------------


def neg_order_struve(nu: int, z: float) -> float:
    """H_{-nu}(z) from the positive-order value plus a finite Laurent sum:

    H_{-nu}(z) = (-1)^nu H_nu(z)
                 + sum_{j=0}^{nu-1} (-1)^j (z/2)^(2j+1-nu)
                   / (Gamma(j+3/2) Gamma(j+3/2-nu))
    """
    if not 0 <= nu <= MAX_NEG_ORDER:
        raise DomainError(f"0 <= nu <= {MAX_NEG_ORDER} required, got {nu}")
    if not math.isfinite(z) or abs(z) > MAX_ABS_Z:
        raise DomainError(f"|z| <= {MAX_ABS_Z} required, got {z}")
    if z == 0 and nu >= 2:
        raise DomainError(f"H_(-{nu}) is singular at z = 0")
    zf = Fraction(z)
    h_pi, tail = _h_pi_sum_exact(nu, zf, -80)
    total = -h_pi if nu % 2 else h_pi
    for j in range(nu):
        factor = (
            recip_gamma(2 * j + 3) * recip_gamma(2 * j + 3 - 2 * nu)
        ).as_rational_over_pi()
        total += (-1) ** j * (zf / 2) ** (2 * j + 1 - nu) * factor
    try:
        return float(total) / math.pi
    except OverflowError as exc:
        raise DomainError("value exceeds the double-precision range") from exc


def struve_reduce(nu: int, z: float) -> float:
    """H_nu(z) evaluated through r1*H1 - r0*H0 + s(nu, z).

    Everything is a rational multiple of 1/pi, so the combination is formed
    exactly and divided by pi once; the huge mutual cancellation between
    the two polynomial products for nu >> |z| costs no precision.
    """
    if nu < 2:
        raise DomainError(f"nu >= 2 required, got {nu}")
    if not math.isfinite(z) or abs(z) > MAX_ABS_Z:
        raise DomainError(f"|z| <= {MAX_ABS_Z} required, got {z}")
    if abs(z) < MIN_ABS_Z_REDUCE:
        raise DomainError(f"|z| >= {MIN_ABS_Z_REDUCE} required near the 1/z poles")
    r1 = r1_poly(nu)
    r0 = r0_poly(nu)
    zf = Fraction(z)
    bound = max(1.0, r1.eval_abs_float(z) + r0.eval_abs_float(z))
    tiny_exp = -70 - max(0, math.ceil(math.log2(bound)))
    h1_pi, _ = _h_pi_sum_exact(1, zf, tiny_exp)
    h0_pi, _ = _h_pi_sum_exact(0, zf, tiny_exp)
    total = (
        r1.eval_rational(zf) * h1_pi
        - r0.eval_rational(zf) * h0_pi
        + s_sum_poly(nu).eval_rational(zf)
    )
    return float(total) / math.pi


# -- the sigma coefficient machinery -----------------------------------------


def frak_c(k: int, a: int, nu: int) -> Fraction:
    """The double-sum coefficient entering the sigma2 polynomial:

    frak_c(k, a, nu) = sum_{j=0}^{a} (-1/4)^j / j! * (k-nu-j)!/(k-2j)!
        * sum_{i=0}^{nu-1} (-1)^i / i!
          * sqrt(pi) (k-j-i)! / ((k-nu-j-i)! Gamma(nu+3/2-i))

    The sqrt(pi) factors cancel against the half-integer gamma, leaving an
    exact rational.  Reciprocal factorials of negative integers vanish; a
    j with k - nu - j < 0 contributes nothing since every reciprocal in its
    inner sum vanishes.
    """
    if not (0 <= a <= k <= 60):
        raise DomainError(f"0 <= a <= k <= 60 required, got a={a}, k={k}")
    if not 0 <= nu <= k:
        raise DomainError(f"0 <= nu <= k required, got nu={nu}, k={k}")
    total = SqrtPiRational(Fraction(0))
    for j in range(a + 1):
        if k - nu - j < 0:
            continue
        rf = recip_factorial(k - 2 * j)
        if rf == 0:
            continue
        outer = (
            Fraction((-1) ** j, 4**j)
            * recip_factorial(j)
            * Fraction(math.factorial(k - nu - j))
            * rf
        )
        inner = SqrtPiRational(Fraction(0))
        for i in range(nu):
            rfi = recip_factorial(k - nu - j - i)
            if rfi == 0:
                continue
            inner = inner + (
                SQRT_PI
                * Fraction((-1) ** i)
                * recip_factorial(i)
                * Fraction(math.factorial(k - j - i))
                * rfi
                * recip_gamma(2 * nu + 3 - 2 * i)
            )
        total = total + inner * outer
    return total.as_rational()


def sigma_polys_explicit(k: int) -> StruveDerivForm:
    """The standalone summation formulas for sigma0, sigma1, sigma2, odd k.

    The floor/ceiling block limits in these displays coincide only for odd
    derivative orders (the application consumes them at k = 4K+1), so even
    k is rejected; use :func:`sigma_polys_composed` there.
    """
    if k % 2 == 0:
        raise DomainError(f"sigma_polys_explicit requires odd k, got {k}")
    if not 1 <= k <= MAX_SIGMA_ORDER:
        raise DomainError(f"1 <= k <= {MAX_SIGMA_ORDER} required, got {k}")
    t = k // 2
    ck = t + 1  # ceil(k/2) for odd k
    kfact = Fraction(math.factorial(k))

    def s0_inner(nu: int, i_up: int) -> Fraction:
        acc = Fraction(0)
        for i in range(i_up + 1):
            rf = recip_factorial(k - 2 * i)
            rfn = recip_factorial(k - 1 - 2 * nu - i)
            if rf == 0 or rfn == 0:
                continue
            acc += (
                Fraction((-1) ** i, 4**i)
                * recip_factorial(i)
                * rf
                * math.factorial(k - nu - i)
                * math.factorial(k - 1 - nu - i)
                * rfn
            )
        return acc / 2

    def s1_inner(nu: int, i_up: int) -> Fraction:
        acc = Fraction(0)
        for i in range(i_up + 1):
            rf = recip_factorial(k - 2 * i)
            rfn = recip_factorial(k - 2 * nu - i)
            if rf == 0 or rfn == 0:
                continue
            acc += (
                Fraction((-1) ** i, 4**i)
                * recip_factorial(i)
                * rf
                * Fraction(math.factorial(k - nu - i)) ** 2
                * rfn
            )
        return acc / 2

    s0_terms: dict[int, Fraction] = {}
    for nu in range(0, t // 2 + 1):
        w = s0_inner(nu, ck) * (-1) ** (nu + 1) * recip_factorial(nu) * recip_factorial(nu + 1)
        s0_terms[2 * nu] = s0_terms.get(2 * nu, Fraction(0)) + kfact * w * Fraction(1, 4**nu)
    for nu in range(t // 2 + 1, t + 1):
        w = s0_inner(nu, k - 1 - 2 * nu) * (-1) ** (nu + 1) * recip_factorial(nu) * recip_factorial(nu + 1)
        s0_terms[2 * nu] = s0_terms.get(2 * nu, Fraction(0)) + kfact * w * Fraction(1, 4**nu)

    ct2 = (t + 1) // 2  # ceil(t/2)
    s1_terms: dict[int, Fraction] = {}
    for nu in range(0, ct2 + 1):
        w = s1_inner(nu, ck) * (-1) ** nu * recip_factorial(nu) ** 2
        s1_terms[2 * nu] = s1_terms.get(2 * nu, Fraction(0)) + kfact * w * Fraction(1, 4**nu)
    for nu in range(ct2 + 1, ck + 1):
        w = s1_inner(nu, k + 1 - 2 * nu) * (-1) ** nu * recip_factorial(nu) ** 2
        s1_terms[2 * nu] = s1_terms.get(2 * nu, Fraction(0)) + kfact * w * Fraction(1, 4**nu)

    s2_terms: dict[int, Fraction] = {}
    # Kronecker-delta term, present exactly when ceil(k/2) - floor(k/2) = 1.
    delta_coeff = (
        Fraction((-1) ** (t + 1), 4 ** (t + 1))
        * (recip_gamma(2 * t + 3) * recip_gamma(2 * ck + 3)).as_rational_over_pi()
    )
    s2_terms[k - 1] = delta_coeff * Fraction(1, 2) ** (k - 1)
    for nu in range(1, ct2 + 1):
        w = frak_c(k, ck, nu) * recip_factorial(nu) / 2
        exp = 2 * nu - 2
        s2_terms[exp] = s2_terms.get(exp, Fraction(0)) + w * Fraction(1, 2) ** exp
    for nu in range(ct2 + 1, ck + 1):
        brace = frak_c(k, k + 1 - 2 * nu, nu) * recip_factorial(nu)
        for i in range(k + 2 - 2 * nu, ck + 1):
            rf = recip_factorial(k - 2 * i)
            if rf == 0:
                continue
            brace += (
                Fraction((-1) ** i, 4**i)
                * recip_factorial(i)
                * rf
                * gamma_half_rational(k - nu - i)
                / gamma_half_rational(nu + 1)
            )
        exp = 2 * nu - 2
        s2_terms[exp] = s2_terms.get(exp, Fraction(0)) + brace / 2 * Fraction(1, 2) ** exp
    s2_terms = {e: kfact * c for e, c in s2_terms.items()}

    return StruveDerivForm(
        k,
        LaurentPoly.from_dict(s0_terms),
        LaurentPoly.from_dict(s1_terms),
        LaurentPoly.from_dict(s2_terms, pi_power=-1),
    )


@lru_cache(maxsize=None)
def sigma_polys_composed(k: int) -> StruveDerivForm:
    """Ground-truth sigma polynomials by pure rational composition.

    The negative-order expansion of the k-th derivative (valid for k >= 1;
    order zero is the identity, giving (0, 1/2, 0)) is combined with the
    order reduction of each H_{k+1-i}, and the (2/z) power shifts are
    normalized so that sigma0/sigma1 come out as plain even polynomials and
    sigma2 as an even polynomial over pi.
    """
    if not 0 <= k <= MAX_SIGMA_ORDER:
        raise DomainError(f"0 <= k <= {MAX_SIGMA_ORDER} required, got {k}")
    if k == 0:
        return StruveDerivForm(
            0,
            LaurentPoly.zero(),
            LaurentPoly.constant(Fraction(1, 2)),
            LaurentPoly.zero(),
        )
    kfact = math.factorial(k)
    a_poly = LaurentPoly.zero()
    b_poly = LaurentPoly.zero()
    c_poly_total = LaurentPoly.zero()
    for i in range(k // 2 + 1):
        w = (
            2
            * kfact
            * (-1) ** i
            * recip_factorial(i)
            * recip_factorial(k - 2 * i)
            * Fraction(1, 2 ** (i + 1))
        )
        nu = k + 1 - i
        a_poly = a_poly + r1_poly(nu).scale(w).shift(-(i + 1))
        b_poly = b_poly - r0_poly(nu).scale(w).shift(-(i + 1))
        c_poly_total = c_poly_total + _s_or_zero(nu).scale(w).shift(-(i + 1))
    for j in range(k // 2 + 1):
        inner = SqrtPiRational(Fraction(0))
        for i in range(j + 1):
            rf = recip_factorial(k - 2 * i)
            if rf == 0:
                continue
            inner = inner + (
                Fraction(1, 2 ** (2 * i + 1))
                * recip_factorial(i)
                * rf
                * recip_gamma(2 * (i - j) + 1)
            )
        coeff = (recip_gamma(2 * (k - j) + 3) * inner).as_rational_over_pi()
        exp = k - 1 - 2 * j
        term = LaurentPoly.from_dict(
            {exp: -kfact * (-1) ** j * coeff * Fraction(1, 2) ** exp}, pi_power=-1
        )
        c_poly_total = c_poly_total + term
    sigma1 = a_poly.scale(Fraction(1, 2) ** (k + 1)).shift(k + 1)
    sigma0 = b_poly.scale(Fraction(1, 2) ** k).shift(k)
    sigma2 = c_poly_total.scale(Fraction(1, 2) ** (k - 1)).shift(k - 1)
    for poly in (sigma0, sigma1):
        assert poly.pi_power == 0
        assert all(e >= 0 and e % 2 == 0 for e in poly.exponents())
    assert sigma2.is_zero or sigma2.pi_power == -1
    assert all(e >= 0 and e % 2 == 0 for e in sigma2.exponents())
    return StruveDerivForm(k, sigma0, sigma1, sigma2)


# -- evaluation ---------------------------------------------------------------


def deriv_h1z_at_zero(k: int) -> float:
    """Value of d^k/dz^k [H1(z)/z] at z = 0.

    Zero for even k; for k = 2m+1 the value is
    (-1)^m m! / (2 sqrt(pi) Gamma(m + 5/2)), an exact rational over pi.
    """
    if not 0 <= k <= MAX_AT_ZERO_ORDER:
        raise DomainError(f"0 <= k <= {MAX_AT_ZERO_ORDER} required, got {k}")
    if k % 2 == 0:
        return 0.0
    m = (k - 1) // 2
    v = Fraction(math.factorial(m)) / (2 * gamma_half_rational(m + 2))
    return float(-v if m % 2 else v) / math.pi


def deriv_h1z(k: int, z: float, cfg: EvalConfig = DEFAULT_CONFIG) -> EvalResult:
    """d^k/dz^k of H1(z)/z: Taylor branch near the origin, the exact ODE
    recurrence elsewhere (see :mod:`besstruve.evaluation`).  The base series
    is pi H_nu and the ODE source 2/pi becomes 2 in that scaling."""
    return eval_derivative(
        k, z, cfg, MAX_SIGMA_ORDER, h1z_series_coeff, 1, _h_pi_sum_exact, math.pi, 2
    )
