"""Evaluation controls, results, the error types shared across modules, and
the derivative evaluator that both base kernels run through.

Each kernel g = J1(z)/z or H1(z)/z is described to the evaluator by data
only: its ascending series g = (1/divisor) sum_n coeff(n) z^(2n + offset)
(offset 0, divisor 1 for J; offset 1, divisor pi for H), its base series
B_nu (J_nu, or the rational pi H_nu), and the source of its ODE
z g'' + 3 g' + z g = source/divisor (0 for J, 2/pi for H).  Differentiated
k times, the ODE gives g^(k+2) = -[(k+3) g^(k+1) + z g^(k) + k g^(k-1)]/z,
plus source/z at k = 0, from g = B1/z and g' = B0/z - 2 B1/z^2.  So every
derivative is c1 B1 + c0 B0 + c2, and at z = a/b the coefficients scaled by
a^(k+1)/b are integers (:func:`ode_coefficients`): the paper's prefactor
polynomials (p1/p0, sigma) at z, as the tests and ``verify`` check exactly.

Below |z| = SMALL_Z_THRESHOLD the 1/z powers are singular, so the series is
differentiated term by term; elsewhere the combination is formed over
integers and rounded once.  Its only error is the base series truncation,
driven below 2^-69 of the coefficient scale, so when the rigorous bound
still misses the tolerance no other route could meet it either and
ConvergenceError is raised, as it is when the Taylor estimate misses it.
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

    ``terms_used`` counts series terms on the Taylor branch, derivative
    orders 0..k of the ODE recurrence (k + 1) on the closed form, and
    derivative terms for the integrals.
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


def ode_coefficients(k: int, a: int, b: int, source: int) -> tuple[int, int, int]:
    """Integers V = (V1, V0, V2) with divisor g^(k) = b (V1 B1 + V0 B0 + V2) / a^(k+1)
    at z = a/b: V_0 = (1, 0, 0), V_1 = (-2b, a, 0), and V_(j+2) =
    -[(j+3) b V_(j+1) + a^2 V_j + j a^2 b V_(j-1)] plus source a^2 in V_2[2].
    """
    aa = a * a
    older, old, cur = (0, 0, 0), (1, 0, 0), (-2 * b, a, 0)  # V_(j-1), V_j, V_(j+1)
    for j in range(k):
        u, w = (j + 3) * b, j * aa * b
        new = [-(u * x + aa * y + w * t) for x, y, t in zip(cur, old, older)]
        if j == 0:
            new[2] += source * aa
        older, old, cur = old, cur, tuple(new)
    return old


def closed_form(k: int, z: float, cfg: EvalConfig, base, divisor: float, source: int) -> EvalResult:
    """g^(k)(z) from :func:`ode_coefficients`, formed exactly and rounded once.

    ``base(order, zf, tiny_exp)`` returns an exact truncated base series and
    its tail bound; the target scales with |c1| + |c0|, which keeps the
    error of the combination below 2^-69 of that scale.
    """
    zf = Fraction(z)
    a, b = zf.numerator, zf.denominator
    v1, v0, v2 = ode_coefficients(k, a, b, source)
    ak = a ** (k + 1)  # c_i = b V_i / a^(k+1)
    # m > log2(|c1| + |c0|), from bit lengths alone
    m = ((abs(v1) + abs(v0)) * b).bit_length() - abs(ak).bit_length() + 1
    tiny_exp = -70 - max(0, m)
    b1, t1 = base(1, zf, tiny_exp)
    b0, t0 = base(0, zf, tiny_exp)
    n1, d1, n0, d0 = b1.numerator, b1.denominator, b0.numerator, b0.denominator
    # int / int rounds correctly, like float(Fraction), without a gcd
    value = b * (v1 * n1 * d0 + v0 * n0 * d1 + v2 * d1 * d0) / (d1 * d0 * ak) / divisor
    tail = b * (abs(v1) * t1.numerator * t0.denominator + abs(v0) * t0.numerator * t1.denominator)
    err = tail / (t1.denominator * t0.denominator * abs(ak)) / divisor
    err += 2 * _EPS * max(1e-300, abs(value))
    if err > cfg.abs_tol:
        raise ConvergenceError(
            f"closed form bound {err:.3e} exceeds abs_tol {cfg.abs_tol:.3e} (k={k}, z={z})"
        )
    return EvalResult(value, err, k + 1, PATH_CLOSED_FORM)


def eval_derivative(
    k: int, z: float, cfg: EvalConfig, max_order: int, coeff, offset: int, base, divisor: float,
    source: int,
) -> EvalResult:
    """Validate (k, z), then take the Taylor branch near the origin and the
    closed form elsewhere."""
    if not 0 <= k <= max_order:
        raise DomainError(f"0 <= k <= {max_order} required, got {k}")
    if not math.isfinite(z) or abs(z) > MAX_ABS_Z:
        raise DomainError(f"|z| <= {MAX_ABS_Z} required, got {z}")
    if abs(z) < SMALL_Z_THRESHOLD:
        return taylor_branch(k, z, cfg, coeff, offset, divisor)
    return closed_form(k, z, cfg, base, divisor, source)
