"""Independent brute-force references for every closed form in the package.

Three oracle families:

* adaptive composite Gauss-Legendre quadrature of the two defining
  integrals over [0, pi/2],
* the same quadrature applied to phase-shifted derivative kernels
  (differentiation under the integral sign turns d^k/dz^k of
  cos/sin(z cos t) into cos^k(t) times cos/sin(z cos t + k pi/2)),
* term-wise differentiation of the ascending Taylor series of J1(z)/z and
  H1(z)/z with exact rational coefficients.

None of these touch the closed-form machinery; they only use elementary
trigonometric evaluations and exact series coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .evaluation import ConvergenceError, DomainError
from .exact import h1z_series_coeff, j1z_series_coeff

_MAX_REFINEMENTS = 20

KIND_BESSEL = "bessel"
KIND_STRUVE = "struve"


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss-Legendre rule; refinement doubles the panel count."""

    panels: int = 8
    nodes_per_panel: int = 32
    target_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.panels <= 0:
            raise ValueError("panels must be positive")
        if self.nodes_per_panel not in (16, 32, 64):
            raise ValueError("nodes_per_panel must be one of 16, 32, 64")
        if not (math.isfinite(self.target_tol) and self.target_tol > 0):
            raise ValueError("target_tol must be positive and finite")


DEFAULT_RULE = QuadratureRule()


@lru_cache(maxsize=8)
def _leggauss(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    # numpy is needed only for the nodes, so it is imported on first use
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(n)
    return tuple(float(v) for v in x), tuple(float(v) for v in w)


def composite_gl(f, a: float, b: float, panels: int, nodes_per_panel: int) -> float:
    """One composite Gauss-Legendre pass with a deterministic summation order."""
    x, w = _leggauss(nodes_per_panel)
    h = (b - a) / panels
    contributions = []
    for p in range(panels):
        left = a + p * h
        mid = left + h / 2
        half = h / 2
        for xi, wi in zip(x, w):
            contributions.append(wi * f(mid + half * xi))
    return math.fsum(contributions) * (h / 2)


def gauss_legendre_adaptive(f, a: float, b: float, rule: QuadratureRule) -> tuple[float, float, int]:
    """Refine by panel doubling until successive values differ by < target_tol.

    Returns (value, last_refinement_delta, total_evaluations).
    """
    panels = rule.panels
    prev = composite_gl(f, a, b, panels, rule.nodes_per_panel)
    evals = panels * rule.nodes_per_panel
    for _ in range(_MAX_REFINEMENTS):
        panels *= 2
        cur = composite_gl(f, a, b, panels, rule.nodes_per_panel)
        evals += panels * rule.nodes_per_panel
        delta = abs(cur - prev)
        if delta < rule.target_tol:
            return cur, delta, evals
        prev = cur
    raise ConvergenceError(
        f"quadrature did not converge to {rule.target_tol} after {_MAX_REFINEMENTS} refinements"
    )


def _check_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise DomainError(f"arguments must be finite, got {v}")


def quad_defining_s(z: float, zeta: float, tol: float = 1e-12) -> float:
    """Brute-force value of the sine-type integral

    int_0^{pi/2} cos(t) sin^2(t) sin(z cos t) sin(zeta cos^2 t) dt
    """
    _check_finite(z, zeta)
    if tol < 1e-13:
        raise DomainError("tol >= 1e-13 required")

    def f(t: float) -> float:
        c = math.cos(t)
        s = math.sin(t)
        return c * s * s * math.sin(z * c) * math.sin(zeta * c * c)

    rule = QuadratureRule(panels=8, nodes_per_panel=32, target_tol=tol)
    value, _, _ = gauss_legendre_adaptive(f, 0.0, math.pi / 2, rule)
    return value


def quad_defining_c(z: float, zeta: float, tol: float = 1e-12) -> float:
    """Brute-force value of the cosine-type integral

    int_0^{pi/2} cos(t) sin^2(t) cos(z cos t) cos(zeta cos^2 t) dt
    """
    _check_finite(z, zeta)
    if tol < 1e-13:
        raise DomainError("tol >= 1e-13 required")

    def f(t: float) -> float:
        c = math.cos(t)
        s = math.sin(t)
        return c * s * s * math.cos(z * c) * math.cos(zeta * c * c)

    rule = QuadratureRule(panels=8, nodes_per_panel=32, target_tol=tol)
    value, _, _ = gauss_legendre_adaptive(f, 0.0, math.pi / 2, rule)
    return value


def _kernel_full(kind: str, k: int, z: float, tol: float = 1e-13) -> tuple[float, float, int]:
    if kind not in (KIND_BESSEL, KIND_STRUVE):
        raise DomainError(f"kind must be 'bessel' or 'struve', got {kind!r}")
    if not 0 <= k <= 60:
        raise DomainError(f"0 <= k <= 60 required, got {k}")
    _check_finite(z)
    phase = k * math.pi / 2
    trig = math.cos if kind == KIND_BESSEL else math.sin

    def f(t: float) -> float:
        c = math.cos(t)
        s = math.sin(t)
        return c**k * s * s * trig(z * c + phase)

    rule = QuadratureRule(panels=8, nodes_per_panel=32, target_tol=tol)
    value, delta, evals = gauss_legendre_adaptive(f, 0.0, math.pi / 2, rule)
    return value * 2 / math.pi, delta * 2 / math.pi, evals


def quad_deriv_kernel(kind: str, k: int, z: float) -> float:
    """d^k/dz^k of J1(z)/z (kind='bessel') or H1(z)/z (kind='struve') by
    differentiating under the integral sign:

    (2/pi) int_0^{pi/2} cos^k(t) sin^2(t) {cos|sin}(z cos t + k pi/2) dt
    """
    value, _, _ = _kernel_full(kind, k, z)
    return value


def taylor_deriv(kind: str, k: int, z: float, nterms: int = 120) -> float:
    """d^k/dz^k of J1(z)/z or H1(z)/z by term-wise series differentiation.

    Exact rational coefficients, truncated after ``nterms`` series terms;
    the truncation error is bounded by the first omitted term.  Intended
    for |z| <= 2 where the series converges almost immediately.
    """
    if kind not in (KIND_BESSEL, KIND_STRUVE):
        raise DomainError(f"kind must be 'bessel' or 'struve', got {kind!r}")
    if k < 0:
        raise DomainError("k must be nonnegative")
    if abs(z) > 2:
        raise DomainError("taylor_deriv supports |z| <= 2")
    if nterms > 200 or nterms <= 0:
        raise DomainError("0 < nterms <= 200 required")

    total = 0.0
    if kind == KIND_BESSEL:
        # J1(z)/z = sum c_n z^(2n);  d^k -> c_n (2n)!/(2n-k)! z^(2n-k)
        n0 = (k + 1) // 2
        for n in range(n0, n0 + nterms):
            if 2 * n < k:
                continue
            coeff = j1z_series_coeff(n) * Fraction(
                math.factorial(2 * n), math.factorial(2 * n - k)
            )
            total += float(coeff) * z ** (2 * n - k)
        return total
    # H1(z)/z = (1/pi) sum b_n z^(2n+1);  d^k -> b_n (2n+1)!/(2n+1-k)! z^(2n+1-k)
    n0 = max(0, (k - 1) // 2)
    for n in range(n0, n0 + nterms):
        if 2 * n + 1 < k:
            continue
        coeff = h1z_series_coeff(n) * Fraction(
            math.factorial(2 * n + 1), math.factorial(2 * n + 1 - k)
        )
        total += float(coeff) * z ** (2 * n + 1 - k)
    return total / math.pi
