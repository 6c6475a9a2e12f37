"""Floating-point evaluation of the base functions J0, J1, Jn, H0, H1, Hn.

All six functions are evaluated from their ascending power series summed in
exact rational arithmetic (the input float is converted to an exact
Fraction), with a rigorous truncation bound, and rounded to float once at
the end.  This costs a little speed but is immune to the cancellation that
a float-summed series suffers beyond |z| of about 12, and it avoids the
large-argument asymptotic expansions, whose optimal-truncation error
(about exp(-2|z|)) is far too large near the crossover the series would
need.  The supported domain |z| <= 50 stays well within exact-arithmetic
reach.

Struve functions of integer order are rational multiples of 1/pi term by
term; the series is accumulated as the exact rational value of pi*H and
divided by pi once, so negative orders (down to -64) work unchanged.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .evaluation import MAX_ABS_Z, ConvergenceError, DomainError
from .exact import gamma_half_rational

MAX_ORDER = 64

_EPS = sys.float_info.epsilon
_HALF = Fraction(1, 2)

# Truncation target 2**TINY_EXP for the exact series; callers that multiply
# the result by large polynomial values pass a lower exponent.
TINY_EXP = -80


@dataclass(frozen=True)
class BaseFnValue:
    """A function value with a conservative absolute error estimate."""

    value: float
    abs_err_estimate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.abs_err_estimate) and self.abs_err_estimate >= 0):
            raise ValueError("abs_err_estimate must be finite and nonnegative")


def _check_z(z: float) -> None:
    if not math.isfinite(z):
        raise DomainError(f"argument must be finite, got {z}")
    if abs(z) > MAX_ABS_Z:
        raise DomainError(f"|z| <= {MAX_ABS_Z} required, got {z}")


def _sum_series(t0: Fraction, ratio, tiny: Fraction, k_min: int) -> tuple[Fraction, Fraction]:
    """Sum t0 + t1 + ... with t_{k+1} = t_k * ratio(k).

    Stops once the next term is below ``tiny``, the index has passed
    ``k_min`` (after which |ratio| must be nonincreasing), and |ratio| has
    dropped to 1/2, so the discarded tail is at most twice the first
    omitted term.  Returns (sum, tail_bound).
    """
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


@lru_cache(maxsize=512)
def _j_sum_exact(nu: int, zf: Fraction, tiny_exp: int) -> tuple[Fraction, Fraction]:
    """Exact truncated series of J_nu (nu >= 0): returns (value, tail_bound)."""
    if zf == 0:
        one = Fraction(1)
        return (one, Fraction(0)) if nu == 0 else (Fraction(0), Fraction(0))
    q = zf * zf / 4
    t0 = (zf / 2) ** nu / math.factorial(nu)
    tiny = Fraction(1, 2 ** (-tiny_exp))

    def ratio(k: int) -> Fraction:
        return -q / ((k + 1) * (k + 1 + nu))

    return _sum_series(t0, ratio, tiny, 0)


@lru_cache(maxsize=512)
def _h_pi_sum_exact(nu: int, zf: Fraction, tiny_exp: int) -> tuple[Fraction, Fraction]:
    """Exact truncated series of pi * H_nu for integer nu: (value, tail_bound).

    For nu <= -2 the series carries negative powers of z, so z = 0 is a pole.
    """
    if zf == 0:
        if nu >= 0:
            return Fraction(0), Fraction(0)
        if nu == -1:
            # constant term: pi / (Gamma(3/2) Gamma(1/2)) = 2
            return Fraction(2), Fraction(0)
        raise DomainError(f"H_{nu}(z) is singular at z = 0")
    q = zf * zf / 4
    t0 = (zf / 2) ** (nu + 1) / (gamma_half_rational(1) * gamma_half_rational(1 + nu))

    def ratio(k: int) -> Fraction:
        return -q / ((k + Fraction(3, 2)) * (k + nu + Fraction(3, 2)))

    tiny = Fraction(1, 2 ** (-tiny_exp))
    # For negative orders the term ratio only shrinks monotonically once
    # k + nu + 3/2 > 0; do not trust the geometric tail bound before that.
    k_min = max(0, -nu)
    return _sum_series(t0, ratio, tiny, k_min)


def _wrap(value_frac: Fraction, tail: Fraction, over_pi: bool) -> BaseFnValue:
    try:
        v = float(value_frac)
        tail_f = float(tail)
    except OverflowError as exc:
        # only reachable for large negative Struve orders at very small z,
        # where the exact value exceeds the double range
        raise DomainError("value exceeds the double-precision range") from exc
    if over_pi:
        v /= math.pi
        tail_f /= math.pi
    err = tail_f + 2 * _EPS * max(1.0, abs(v))
    return BaseFnValue(v, err)


def bessel_j0(z: float) -> BaseFnValue:
    """Bessel function of the first kind, order 0."""
    _check_z(z)
    s, tail = _j_sum_exact(0, Fraction(z), TINY_EXP)
    return _wrap(s, tail, over_pi=False)


def bessel_j1(z: float) -> BaseFnValue:
    """Bessel function of the first kind, order 1 (odd in z)."""
    _check_z(z)
    s, tail = _j_sum_exact(1, Fraction(z), TINY_EXP)
    return _wrap(s, tail, over_pi=False)


def bessel_jn(nu: int, z: float) -> BaseFnValue:
    """Bessel function of the first kind, integer order 0 <= nu <= 64."""
    if not 0 <= nu <= MAX_ORDER:
        raise DomainError(f"order must satisfy 0 <= nu <= {MAX_ORDER}, got {nu}")
    _check_z(z)
    s, tail = _j_sum_exact(nu, Fraction(z), TINY_EXP)
    return _wrap(s, tail, over_pi=False)


def struve_h0(z: float) -> BaseFnValue:
    """Struve function of order 0 (odd in z)."""
    _check_z(z)
    s, tail = _h_pi_sum_exact(0, Fraction(z), TINY_EXP)
    return _wrap(s, tail, over_pi=True)


def struve_h1(z: float) -> BaseFnValue:
    """Struve function of order 1 (even in z)."""
    _check_z(z)
    s, tail = _h_pi_sum_exact(1, Fraction(z), TINY_EXP)
    return _wrap(s, tail, over_pi=True)


def struve_hn(nu: int, z: float) -> BaseFnValue:
    """Struve function of integer order, -64 <= nu <= 64.

    Orders nu <= -2 are singular at z = 0 (negative powers survive in the
    series); elsewhere the defining series applies unchanged, since
    half-integer gamma values never hit a pole.
    """
    if not -MAX_ORDER <= nu <= MAX_ORDER:
        raise DomainError(f"order must satisfy |nu| <= {MAX_ORDER}, got {nu}")
    _check_z(z)
    s, tail = _h_pi_sum_exact(nu, Fraction(z), TINY_EXP)
    return _wrap(s, tail, over_pi=True)
