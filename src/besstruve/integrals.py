"""Top-level evaluation of the two trigonometric moment integrals.

    S(z, zeta) = int_0^{pi/2} cos(t) sin^2(t) sin(z cos t) sin(zeta cos^2 t) dt
    C(z, zeta) = int_0^{pi/2} cos(t) sin^2(t) cos(z cos t) cos(zeta cos^2 t) dt

Expanding the zeta factor in its own Taylor series turns each into a series
over derivatives of the base kernels,

    S = (pi/2) sum_K (-1)^K zeta^(2K+1)/(2K+1)! * d^(4K+3)/dz^(4K+3) [J1(z)/z]
    C = (pi/2) sum_K (-1)^K zeta^(2K)  /(2K)!   * d^(4K+1)/dz^(4K+1) [H1(z)/z]

truncated by a rigorous tail bound: every derivative of either kernel is
bounded in magnitude by the derivative-free moment

    (2/pi) int_0^{pi/2} cos^k(t) sin^2(t) dt
        = Gamma((k+1)/2) / (2 sqrt(pi) Gamma(k/2 + 2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache

from .bessel_deriv import MAX_DERIV_ORDER, deriv_j1z
from .evaluation import ConvergenceError, DomainError, EvalConfig, EvalResult, PATH_CLOSED_FORM
from .exact import SQRT_PI, gamma_exact
from .struve_deriv import MAX_SIGMA_ORDER, deriv_h1z

MAX_ABS_ARG = 50.0
KAPPA_CAP = 25
MAX_BOUND_ORDER = 300

# Derivative-order preconditions bound the usable series length.
_S_KAPPA_MAX = min(KAPPA_CAP, (MAX_DERIV_ORDER - 3) // 4)
_C_KAPPA_MAX = min(KAPPA_CAP, (MAX_SIGMA_ORDER - 1) // 4)

# Enough weights to sum the explicit part of the tail bound.
_TAIL_TERMS = 60


@dataclass(frozen=True)
class IntegralRequest:
    z: float
    zeta: float
    cfg: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self) -> None:
        for name, v in (("z", self.z), ("zeta", self.zeta)):
            if not math.isfinite(v) or abs(v) > MAX_ABS_ARG:
                raise DomainError(f"|{name}| <= {MAX_ABS_ARG} required, got {v}")


@lru_cache(maxsize=None)
def truncation_bound(k: int) -> float:
    """Uniform bound on |d^k/dz^k| of either base kernel:

    Gamma((k+1)/2) / (2 sqrt(pi) Gamma(k/2 + 2)), exact then rounded.
    Memoized: it depends on k alone, which is at most MAX_BOUND_ORDER.
    """
    if not 0 <= k <= MAX_BOUND_ORDER:
        raise DomainError(f"0 <= k <= {MAX_BOUND_ORDER} required, got {k}")
    spr = gamma_exact(k + 1) * gamma_exact(k + 4).reciprocal() * SQRT_PI.reciprocal()
    return (spr * Fraction(1, 2)).to_float()


def _weights(kind: str, zeta: float, count: int) -> list[float]:
    """(pi/2) (-1)^K zeta^(2K+1)/(2K+1)! for 's', zeta^(2K)/(2K)! for 'c'."""
    out = []
    w = (math.pi / 2) * (zeta if kind == "s" else 1.0)
    for kap in range(count):
        out.append(w)
        if kind == "s":
            w *= -(zeta * zeta) / ((2 * kap + 2) * (2 * kap + 3))
        else:
            w *= -(zeta * zeta) / ((2 * kap + 1) * (2 * kap + 2))
    return out


def _tail_bound(kap_next: int, zeta: float, weights: list[float], order_of) -> float:
    """Rigorous bound on the series tail starting at term ``kap_next``:
    explicit weight*bound terms, closed with a geometric remainder once the
    weight ratio has dropped below 0.5.

    zeta^2 / ((2K+1)(2K+2)) dominates the successive-weight ratio of both
    families (the sine family's true ratio has the larger denominator
    (2K+2)(2K+3)), and the derivative bound factor only shrinks with K, so
    the geometric closing is an upper bound for either series.
    """
    total = 0.0
    last = 0.0
    kap = kap_next
    while kap < len(weights):
        order = min(order_of(kap), MAX_BOUND_ORDER)
        last = abs(weights[kap]) * truncation_bound(order)
        total += last
        ratio = (zeta * zeta) / ((2 * kap + 1) * (2 * kap + 2))
        if ratio < 0.5 and (last < 1e-300 or kap >= kap_next + 8):
            return total + last * ratio / (1 - ratio)
        kap += 1
    return math.inf


def _series_eval(z: float, zeta: float, cfg: EvalConfig, kind: str) -> EvalResult:
    if kind == "s":
        kap_max = _S_KAPPA_MAX
        order_of = lambda kap: 4 * kap + 3
        deriv = deriv_j1z
    else:
        kap_max = _C_KAPPA_MAX
        order_of = lambda kap: 4 * kap + 1
        deriv = deriv_h1z
    weights = _weights(kind, zeta, kap_max + 1 + _TAIL_TERMS)

    total = 0.0
    err = 0.0
    path = PATH_CLOSED_FORM
    for kap in range(kap_max + 1):
        w = weights[kap]
        if w != 0.0:
            inner_tol = min(cfg.abs_tol, 1e-11) / max(1.0, abs(w))
            if inner_tol == 0.0:
                raise ConvergenceError(
                    f"abs_tol {cfg.abs_tol:.3e} underflows to 0 for the term weight {w:.3e}"
                )
            r = deriv(order_of(kap), z, replace(cfg, abs_tol=inner_tol))
            total += w * r.value
            err += abs(w) * r.abs_err_estimate
            path = r.path  # z is fixed, so every term takes the same path
        tail = _tail_bound(kap + 1, zeta, weights, order_of)
        if tail < cfg.abs_tol:
            return EvalResult(total, err + tail, kap + 1, path)
    raise ConvergenceError(
        f"series tail bound did not reach abs_tol {cfg.abs_tol:.3e} within "
        f"{kap_max + 1} terms (zeta={zeta})"
    )


def s_integral(req: IntegralRequest) -> EvalResult:
    """The sine-type integral; odd in z and in zeta, so signs are
    canonicalized before the series is evaluated."""
    if req.z == 0.0 or req.zeta == 0.0:
        return EvalResult(0.0, 0.0, 0, PATH_CLOSED_FORM)
    sign = (-1.0 if req.z < 0 else 1.0) * (-1.0 if req.zeta < 0 else 1.0)
    res = _series_eval(abs(req.z), abs(req.zeta), req.cfg, "s")
    return EvalResult(sign * res.value, res.abs_err_estimate, res.terms_used, res.path)


def c_integral(req: IntegralRequest) -> EvalResult:
    """The cosine-type integral; even in both arguments."""
    return _series_eval(abs(req.z), abs(req.zeta), req.cfg, "c")
