"""Higher derivatives of J1(z)/z.

The paper writes the k-th derivative as

    d^k/dz^k [J1(z)/z] = (-1)^k [ p1(k, z) J1(z) - p0(k, z) J0(z) ]

where p1 and p0 are Laurent polynomials in 1/z assembled from the Lommel
reduction polynomials:

    p{1,0}(k, z) = 2 k! sum_{i=0}^{floor(k/2)} (-1)^i / (i! (k-2i)!)
                   * r{1,0}(k+1-i, z) / (2z)^(i+1)

``p_polys`` builds these closed forms exactly; ``poly`` dumps them and the
tests and ``verify`` check them against the runtime.  ``deriv_j1z`` does not
build them: it takes a term-wise Taylor branch below |z| = 0.5 and
elsewhere the integer recurrence of the kernel ODE z f'' + 3 f' + z f = 0,
whose coefficients at z equal (-1)^k p1(k, z) and -(-1)^k p0(k, z) exactly
(see :mod:`besstruve.evaluation`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .basefn import _j_sum_exact
from .evaluation import DEFAULT_CONFIG, DomainError, EvalConfig, EvalResult, eval_derivative
from .exact import gamma_half_rational, j1z_series_coeff, recip_factorial
from .laurent import LaurentPoly
from .lommel import _r0_or_zero, c_poly, r1_poly

MAX_DERIV_ORDER = 60
MAX_AT_ZERO_ORDER = 200


@dataclass(frozen=True)
class BesselDerivForm:
    """Prefactor polynomials of the closed-form k-th derivative of J1(z)/z."""

    k: int
    p1: LaurentPoly
    p0: LaurentPoly


def _p_polys_from(k: int, r1_of, r0_of) -> BesselDerivForm:
    kfact = math.factorial(k)
    p1 = LaurentPoly.zero()
    p0 = LaurentPoly.zero()
    for i in range(k // 2 + 1):
        w = 2 * kfact * (-1) ** i * recip_factorial(i) * recip_factorial(k - 2 * i)
        scale = w * Fraction(1, 2 ** (i + 1))
        p1 = p1 + r1_of(k + 1 - i).scale(scale).shift(-(i + 1))
        p0 = p0 + r0_of(k + 1 - i).scale(scale).shift(-(i + 1))
    return BesselDerivForm(k, p1, p0)


@lru_cache(maxsize=None)
def p_polys(k: int) -> BesselDerivForm:
    """Exact p1/p0 for derivative order 0 <= k <= 60.

    Built from the memoized closed-form gamma-ratio sums r1_poly/r0_poly,
    which the Struve prefactors share, so the runtime never builds the
    intermediate recurrence polynomials.
    """
    if not 0 <= k <= MAX_DERIV_ORDER:
        raise DomainError(f"0 <= k <= {MAX_DERIV_ORDER} required, got {k}")
    return _p_polys_from(k, r1_poly, _r0_or_zero)


def p_polys_recurrence(k: int) -> BesselDerivForm:
    """Same polynomials built from the three-term Lommel recurrence c_poly.

    The independent cross-check of :func:`p_polys`: both routes must agree
    exactly over the whole runtime range 0 <= k <= 60.
    """
    if not 0 <= k <= MAX_DERIV_ORDER:
        raise DomainError(f"0 <= k <= {MAX_DERIV_ORDER} required, got {k}")
    return _p_polys_from(k, lambda nu: c_poly(nu - 1, nu), lambda nu: c_poly(nu - 2, nu))


def deriv_j1z_at_zero(k: int) -> float:
    """Value of d^k/dz^k [J1(z)/z] at z = 0.

    Zero for odd k; for k = 2m the value is
    (-1)^m Gamma(m + 1/2) / (2 sqrt(pi) (m+1)!), computed exactly and
    rounded once.
    """
    if not 0 <= k <= MAX_AT_ZERO_ORDER:
        raise DomainError(f"0 <= k <= {MAX_AT_ZERO_ORDER} required, got {k}")
    if k % 2:
        return 0.0
    m = k // 2
    # Gamma(m+1/2)/sqrt(pi) is rational, so the whole amplitude is rational.
    v = gamma_half_rational(m) / (2 * math.factorial(m + 1))
    return float(-v if m % 2 else v)


def deriv_j1z(k: int, z: float, cfg: EvalConfig = DEFAULT_CONFIG) -> EvalResult:
    """d^k/dz^k of J1(z)/z: Taylor branch near the origin, the exact ODE
    recurrence elsewhere (see :mod:`besstruve.evaluation`)."""
    return eval_derivative(k, z, cfg, MAX_DERIV_ORDER, j1z_series_coeff, 0, _j_sum_exact, 1.0, 0)
