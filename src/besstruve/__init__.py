"""Bessel/Struve closed forms for two oscillatory trigonometric moment integrals.

The package evaluates

    S(z, zeta) = int_0^{pi/2} cos(t) sin^2(t) sin(z cos t) sin(zeta cos^2 t) dt
    C(z, zeta) = int_0^{pi/2} cos(t) sin^2(t) cos(z cos t) cos(zeta cos^2 t) dt

as rapidly converging series over high derivatives of J1(z)/z and H1(z)/z.
Each derivative is an exact rational combination of J1/J0 (or H1/H0 and a
constant) whose coefficients come from an integer recurrence of the kernel
ODE; they equal the paper's Lommel-type prefactor polynomials, which are
kept as exact closed forms, checked against the recurrence and dumped by
``poly``.  Independent brute-force oracles (adaptive Gauss-Legendre
quadrature and term-wise differentiated Taylor series) back every result.
"""

from .basefn import (
    BaseFnValue,
    bessel_j0,
    bessel_j1,
    bessel_jn,
    struve_h0,
    struve_h1,
    struve_hn,
)
from .bessel_deriv import BesselDerivForm, deriv_j1z, deriv_j1z_at_zero, p_polys
from .evaluation import (
    ConvergenceError,
    DomainError,
    EvalConfig,
    EvalResult,
)
from .exact import Rational
from .integrals import IntegralRequest, c_integral, s_integral, truncation_bound
from .laurent import LaurentPoly
from .lommel import bessel_reduce, c_poly, r0_poly, r1_poly, reduced_2f3_poly
from .oracle import (
    QuadratureRule,
    quad_defining_c,
    quad_defining_s,
    quad_deriv_kernel,
    taylor_deriv,
)
from .struve_deriv import (
    StruveDerivForm,
    deriv_h1z,
    deriv_h1z_at_zero,
    frak_c,
    neg_order_struve,
    s_sum_poly,
    sigma_polys_composed,
    sigma_polys_explicit,
    struve_reduce,
)

__version__ = "0.1.0"

__all__ = [
    "BaseFnValue",
    "BesselDerivForm",
    "ConvergenceError",
    "DomainError",
    "EvalConfig",
    "EvalResult",
    "IntegralRequest",
    "LaurentPoly",
    "QuadratureRule",
    "Rational",
    "StruveDerivForm",
    "bessel_j0",
    "bessel_j1",
    "bessel_jn",
    "bessel_reduce",
    "c_integral",
    "c_poly",
    "deriv_h1z",
    "deriv_h1z_at_zero",
    "deriv_j1z",
    "deriv_j1z_at_zero",
    "frak_c",
    "neg_order_struve",
    "p_polys",
    "quad_defining_c",
    "quad_defining_s",
    "quad_deriv_kernel",
    "r0_poly",
    "r1_poly",
    "reduced_2f3_poly",
    "s_integral",
    "s_sum_poly",
    "sigma_polys_composed",
    "sigma_polys_explicit",
    "struve_h0",
    "struve_h1",
    "struve_hn",
    "struve_reduce",
    "taylor_deriv",
    "truncation_bound",
]
