"""Laurent polynomials in z with exact rational coefficients.

A ``LaurentPoly`` is a finite map from integer exponents of z (possibly
negative) to rational coefficients, together with an overall ``pi_power``
tag: the represented value is ``pi**pi_power * sum(c_e * z**e)``.  Only
``pi_power`` 0 and -1 occur in this package; the families built from
half-integer gamma ratios carry -1, everything else carries 0.

Instances are immutable values; all arithmetic returns new objects.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .exact import Rational


def _normalize(items: Iterable[tuple[int, Fraction]]) -> tuple[tuple[int, Fraction], ...]:
    acc: dict[int, Fraction] = {}
    for exp, coeff in items:
        c = acc.get(exp, Fraction(0)) + coeff
        if c == 0:
            acc.pop(exp, None)
        else:
            acc[exp] = c
    return tuple(sorted(acc.items(), key=lambda t: -t[0]))


@dataclass(frozen=True)
class LaurentPoly:
    """pi**pi_power times a finite sum of c_e * z**e, exponents descending."""

    terms: tuple[tuple[int, Fraction], ...] = ()
    pi_power: int = 0

    def __post_init__(self) -> None:
        if self.pi_power not in (0, -1):
            raise ValueError(f"unsupported pi_power {self.pi_power}")
        if not self.terms and self.pi_power != 0:
            object.__setattr__(self, "pi_power", 0)

    @classmethod
    def from_dict(cls, coeffs: Mapping[int, Rational | int], pi_power: int = 0) -> "LaurentPoly":
        items = [(int(e), Fraction(c)) for e, c in coeffs.items()]
        return cls(_normalize(items), pi_power)

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls((), 0)

    @classmethod
    def constant(cls, c: Rational | int, pi_power: int = 0) -> "LaurentPoly":
        return cls.from_dict({0: Fraction(c)}, pi_power)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def coeffs(self) -> dict[int, Fraction]:
        """The exponent -> coefficient map (a fresh dict; instances stay immutable)."""
        return dict(self.terms)

    def coeff(self, exp: int) -> Fraction:
        for e, c in self.terms:
            if e == exp:
                return c
        return Fraction(0)

    def exponents(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self.terms)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.pi_power != other.pi_power:
            raise ValueError(f"pi_power mismatch: {self.pi_power} vs {other.pi_power}")
        return LaurentPoly(_normalize(self.terms + other.terms), self.pi_power)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -c) for e, c in self.terms), self.pi_power)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero or other.is_zero:
            return LaurentPoly.zero()
        items = [
            (e1 + e2, c1 * c2)
            for e1, c1 in self.terms
            for e2, c2 in other.terms
        ]
        return LaurentPoly(_normalize(items), self.pi_power + other.pi_power)

    def scale(self, factor: Rational | int) -> "LaurentPoly":
        f = Fraction(factor)
        if f == 0:
            return LaurentPoly.zero()
        return LaurentPoly(tuple((e, c * f) for e, c in self.terms), self.pi_power)

    def shift(self, dexp: int) -> "LaurentPoly":
        """Multiply by z**dexp."""
        return LaurentPoly(tuple((e + dexp, c) for e, c in self.terms), self.pi_power)

    def eval_rational(self, z: Fraction) -> Fraction:
        """Exact value of the rational part sum(c_e z^e); excludes pi_power."""
        return sum((c * z**e for e, c in self.terms), Fraction(0))

    def eval_float(self, z: float) -> float:
        """Floating value including the pi**pi_power factor."""
        total = 0.0
        for e, c in self.terms:
            total += float(c) * z ** e
        if self.pi_power:
            total *= math.pi ** self.pi_power
        return total

    def eval_abs_float(self, z: float) -> float:
        """Sum of absolute term magnitudes at |z|, including the pi factor."""
        az = abs(z)
        total = 0.0
        for e, c in self.terms:
            total += abs(float(c)) * az ** e
        if self.pi_power:
            total *= math.pi ** self.pi_power
        return total

    # -- serialization ----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "pi_power": self.pi_power,
            "terms": [
                {"exp": e, "num": str(c.numerator), "den": str(c.denominator)}
                for e, c in self.terms
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LaurentPoly":
        terms = [
            (int(t["exp"]), Fraction(int(t["num"]), int(t["den"])))
            for t in obj["terms"]
        ]
        return cls(_normalize(terms), int(obj["pi_power"]))

    @classmethod
    def from_json(cls, text: str) -> "LaurentPoly":
        return cls.from_json_obj(json.loads(text))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{e}")
        body = " + ".join(parts).replace("+ -", "- ")
        if self.pi_power == -1:
            return f"(1/pi)*({body})"
        return body
