"""Floating-point evaluation of the base functions J0, J1, Jn, H0, H1, Hn.

All six functions are evaluated from their ascending power series summed in
exact rational arithmetic (the input float is converted to an exact
Fraction), with a rigorous truncation bound, and rounded to float once at
the end.  The sums run on integers over one running denominator and are
normalized once, which gives the same rational as term-by-term Fraction
arithmetic without a gcd per operation.  This costs a little speed but is
immune to the cancellation that a float-summed series suffers beyond |z|
of about 12, and it avoids the large-argument asymptotic expansions, whose
optimal-truncation error (about exp(-2|z|)) is far too large near the
crossover the series would need.  The supported domain |z| <= 50 stays
well within exact-arithmetic reach.

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


def _sum_series_int(
    p: int, q: int, num: int, den, tiny_exp: int, k_min: int
) -> tuple[Fraction, Fraction]:
    """Sum t0 + t1 + ... with t0 = p/q and t_{k+1} = t_k * num / den(k).

    Everything stays in integers: the current term is p/q and the partial
    sum n/q over the same denominator, so each step only multiplies, and
    the result is normalized once.  Stops once the next term is below
    2**tiny_exp, the index has passed ``k_min`` (after which |num/den(k)|
    must be nonincreasing), and |num/den(k)| has dropped to 1/2, so the
    discarded tail is at most twice the first omitted term.  den(k) may be
    negative, so all three tests compare magnitudes.  Returns
    (sum, tail_bound).
    """
    shift = -tiny_exp
    two_num = 2 * abs(num)
    n = p
    d = den(0)
    k = 0
    while True:
        p_next = p * num
        q_next = q * d
        k += 1
        d_next = den(k)
        if k >= k_min and abs(p_next) << shift < abs(q_next) and two_num <= abs(d_next):
            return Fraction(n, q), Fraction(2 * abs(p_next), abs(q_next))
        n = n * d + p_next
        p, q, d = p_next, q_next, d_next
        if k > 5000:
            raise ConvergenceError("base function series did not converge")


@lru_cache(maxsize=512)
def _j_sum_exact(nu: int, zf: Fraction, tiny_exp: int) -> tuple[Fraction, Fraction]:
    """Exact truncated series of J_nu (nu >= 0): returns (value, tail_bound).

    With z = a/b the terms are (a/2b)^nu / nu! times the ratios
    -a^2 / (4 b^2 (k+1)(k+1+nu)).
    """
    if zf == 0:
        one = Fraction(1)
        return (one, Fraction(0)) if nu == 0 else (Fraction(0), Fraction(0))
    a, b = zf.numerator, zf.denominator
    bb4 = 4 * b * b
    return _sum_series_int(
        a**nu, (2 * b) ** nu * math.factorial(nu), -a * a,
        lambda k: bb4 * (k + 1) * (k + 1 + nu), tiny_exp, 0,
    )


@lru_cache(maxsize=512)
def _h_pi_sum_exact(nu: int, zf: Fraction, tiny_exp: int) -> tuple[Fraction, Fraction]:
    """Exact truncated series of pi * H_nu for integer nu: (value, tail_bound).

    With z = a/b the terms are (a/2b)^(nu+1) / (Gamma(3/2) Gamma(nu+3/2)/pi)
    times the ratios -a^2 / (b^2 (2k+3)(2k+2nu+3)); the last factor and the
    gamma value are negative for some negative orders.  For nu <= -2 the
    series carries negative powers of z, so z = 0 is a pole.
    """
    if zf == 0:
        if nu >= 0:
            return Fraction(0), Fraction(0)
        if nu == -1:
            # constant term: pi / (Gamma(3/2) Gamma(1/2)) = 2
            return Fraction(2), Fraction(0)
        raise DomainError(f"H_{nu}(z) is singular at z = 0")
    a, b = zf.numerator, zf.denominator
    # 1/(Gamma(3/2) Gamma(nu+3/2)/pi) = 2 g.denominator / g.numerator
    g = gamma_half_rational(1 + nu)
    m = nu + 1
    if m >= 0:
        p, q = a**m * 2 * g.denominator, (2 * b) ** m * g.numerator
    else:
        p, q = (2 * b) ** -m * 2 * g.denominator, a**-m * g.numerator
    bb = b * b
    # For negative orders the term ratio only shrinks monotonically once
    # k + nu + 3/2 > 0; do not trust the geometric tail bound before that.
    return _sum_series_int(
        p, q, -a * a, lambda k: bb * (2 * k + 3) * (2 * k + 2 * nu + 3), tiny_exp, max(0, -nu)
    )


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
