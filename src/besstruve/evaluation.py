"""Evaluation controls, results, the error types shared across modules, and
the derivative evaluator that both base kernels run through.

Each kernel f(z) = J1(z)/z or H1(z)/z is described to the evaluator by data
only: its ascending series

    f(z) = (1/divisor) sum_n coeff(n) z^(2n + offset)

(offset 0 and divisor 1 for J1(z)/z, offset 1 and divisor pi for H1(z)/z),
and its closed-form k-th derivative

    d^k/dz^k f(z) = (-1)^k [ sum_i poly_i(z) B_i(z) + free(z) ] / divisor

over exact rational prefactor polynomials and base series B_i.  Below
|z| = SMALL_Z_THRESHOLD the 1/z prefactors are singular, so the series is
differentiated term by term; elsewhere the closed form is assembled in
exact rational arithmetic and rounded once.  Its only error is the base
series truncation, which is driven below 2^-69 of the result's scale, so
when the rigorous bound still misses the tolerance no other route could
meet it either and ConvergenceError is raised.  The Taylor branch raises it
too when its estimate misses the tolerance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction


class DomainError(ValueError):
    """An argument lies outside the supported domain."""


class ConvergenceError(RuntimeError):
    """No evaluation path reached the requested tolerance."""


PATH_CLOSED_FORM = "closed_form"
PATH_TAYLOR = "taylor"

MAX_ABS_Z = 50.0
# Below this |z| the term-wise Taylor branch is used.
SMALL_Z_THRESHOLD = 0.5
# Cap on Taylor series terms; below the threshold far fewer are needed.
MAX_TAYLOR_TERMS = 60

_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class EvalConfig:
    """The one evaluation setting.

    abs_tol   target absolute tolerance of a returned value.  Both the
              closed form and the Taylor branch raise ConvergenceError when
              their error estimate exceeds it (the Taylor estimate is about
              5e-16 at most).
    """

    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0):
            raise ValueError(f"abs_tol must be positive and finite, got {self.abs_tol}")


DEFAULT_CONFIG = EvalConfig()


@dataclass(frozen=True)
class EvalResult:
    """A value, its error estimate, and the route taken.

    ``terms_used`` counts series terms on the Taylor branch, prefactor
    polynomial terms on the closed form, and derivative terms for the
    integrals.
    """

    value: float
    abs_err_estimate: float
    terms_used: int
    path: str

    def __post_init__(self) -> None:
        if not (math.isfinite(self.abs_err_estimate) and self.abs_err_estimate >= 0):
            raise ValueError("abs_err_estimate must be finite and nonnegative")


def taylor_branch(k: int, z: float, cfg: EvalConfig, coeff, offset: int, divisor: float) -> EvalResult:
    """d^k/dz^k of (1/divisor) sum_n coeff(n) z^(2n + offset), term by term."""
    n0 = (k - offset + 1) // 2  # first term that survives k differentiations
    total = 0.0
    abs_total = 0.0
    terms = 0
    tail = math.inf
    for n in range(n0, n0 + MAX_TAYLOR_TERMS):
        e = 2 * n + offset
        c = coeff(n) * Fraction(math.factorial(e), math.factorial(e - k))
        t = float(c) * z ** (e - k)
        if terms >= 2 and abs(t) < 1e-17 * max(1.0, abs_total):
            tail = abs(t)
            break
        total += t
        abs_total += abs(t)
        terms += 1
    else:
        raise ConvergenceError(f"Taylor branch needs more than {MAX_TAYLOR_TERMS} terms")
    err = (tail + 4 * _EPS * max(abs_total, abs(total))) / divisor
    if err > cfg.abs_tol:
        raise ConvergenceError(
            f"Taylor branch estimate {err:.3e} exceeds abs_tol {cfg.abs_tol:.3e} (k={k}, z={z})"
        )
    return EvalResult(total / divisor, err, terms, PATH_TAYLOR)


def closed_form(k: int, z: float, cfg: EvalConfig, pairs, free, base, divisor: float) -> EvalResult:
    """(-1)^k [sum poly(z) base(order, z) + free(z)] / divisor, exactly.

    ``pairs`` holds (poly, order) tuples and ``base(order, zf, tiny_exp)``
    returns an exact truncated base series with its tail bound.  The
    truncation target scales with the polynomial magnitudes, so the product
    error stays below 2^-69 before the division.
    """
    zf = Fraction(z)
    pair_abs = sum(poly.eval_abs_float(z) for poly, _ in pairs)
    bound = max(1.0, pair_abs + free.eval_abs_float(z))
    tiny_exp = -70 - max(0, math.ceil(math.log2(bound)))
    total = free.eval_rational(zf)
    tail = Fraction(0)
    for poly, order in pairs:
        b, b_tail = base(order, zf, tiny_exp)
        total += poly.eval_rational(zf) * b
        tail = max(tail, b_tail)
    sign = -1 if k % 2 else 1
    value = sign * float(total) / divisor
    err = pair_abs * float(tail) / divisor + 2 * _EPS * max(1e-300, abs(value))
    if err > cfg.abs_tol:
        raise ConvergenceError(
            f"closed form bound {err:.3e} exceeds abs_tol {cfg.abs_tol:.3e} (k={k}, z={z})"
        )
    terms = sum(len(poly.terms) for poly, _ in pairs) + len(free.terms)
    return EvalResult(value, err, terms, PATH_CLOSED_FORM)


def eval_derivative(
    k: int, z: float, cfg: EvalConfig, max_order: int, coeff, offset: int, forms, base, divisor: float
) -> EvalResult:
    """Validate (k, z), then take the Taylor branch near the origin and the
    closed form, with ``forms(k)`` giving its (pairs, free), elsewhere."""
    if not 0 <= k <= max_order:
        raise DomainError(f"0 <= k <= {max_order} required, got {k}")
    if not math.isfinite(z) or abs(z) > MAX_ABS_Z:
        raise DomainError(f"|z| <= {MAX_ABS_Z} required, got {z}")
    if abs(z) < SMALL_Z_THRESHOLD:
        return taylor_branch(k, z, cfg, coeff, offset, divisor)
    pairs, free = forms(k)
    return closed_form(k, z, cfg, pairs, free, base, divisor)
