"""Exact arithmetic on signed square roots of rationals.

Wigner 3-j and 6-j symbols, Clebsch-Gordan coefficients and all the
closed-form state-space coordinates handled here have the shape
s*sqrt(p/q) with s in {-1, 0, +1} and p/q >= 0.  That domain is closed
under products and quotients, and under sums whenever the two radicands
differ by a perfect square of a rational -- which is exactly the situation
in the 6-j orthogonality/recoupling sums, where the K-dependent triangle
factors enter squared.  Sums outside that domain raise ValueError instead
of silently degrading to floats.  ``exact_sum`` is the one home for sums:
``+`` and the verification sums all go through it.

Operators take ExactRadical operands only (``r * 2`` raises TypeError): a
rational factor goes through ``scale``, a rational value through ``from_rational``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """The square root of a rational q >= 0 if it is rational, else None."""
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Fraction(num, den) if num * num == q.numerator and den * den == q.denominator else None


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class ExactRadical:
    """The exact number sign * sqrt(radicand).

    ``radicand`` is a nonnegative Fraction, which keeps itself in lowest
    terms, and sign == 0 iff radicand == 0.  So each value has one stored
    form, and two radicals are equal iff their fields are equal.
    """

    sign: int
    radicand: Fraction

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if not isinstance(self.radicand, Fraction):
            raise TypeError(f"radicand must be a Fraction, got {type(self.radicand).__name__}")
        if self.radicand.numerator < 0:
            raise ValueError(f"radicand must be nonnegative, got {self.radicand}")
        if (self.sign == 0) != (self.radicand.numerator == 0):
            raise ValueError("sign == 0 iff radicand == 0")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "ExactRadical":
        return cls(0, Fraction(0))

    @classmethod
    def one(cls) -> "ExactRadical":
        return cls(1, Fraction(1))

    @classmethod
    def sqrt(cls, r) -> "ExactRadical":
        """The positive square root of a nonnegative rational."""
        r = _as_fraction(r)
        if r < 0:
            raise ValueError(f"cannot take a real square root of {r}")
        return cls(1 if r else 0, r)

    @classmethod
    def from_rational(cls, r) -> "ExactRadical":
        """The rational r itself, i.e. sign(r) * sqrt(r**2)."""
        r = _as_fraction(r)
        return cls((r > 0) - (r < 0), r * r)

    # -- queries -----------------------------------------------------------

    @property
    def num(self) -> int:
        return self.radicand.numerator

    @property
    def den(self) -> int:
        return self.radicand.denominator

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def square(self) -> Fraction:
        """The exact value of self**2."""
        return self.radicand

    def as_rational(self) -> Fraction | None:
        """The exact rational value, or None if irrational."""
        root = _rational_sqrt(self.radicand)
        return None if root is None else self.sign * root

    def ratio(self, other: "ExactRadical") -> Fraction | None:
        """self/other as an exact Fraction if that quotient is rational."""
        if other.sign == 0:
            raise ZeroDivisionError("ratio to zero radical")
        root = _rational_sqrt(self.radicand / other.radicand)
        return None if root is None else self.sign * other.sign * root

    def __float__(self) -> float:
        if self.sign == 0:
            return 0.0
        # int / int is correctly rounded even for huge integers.
        return self.sign * math.sqrt(self.num / self.den)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "ExactRadical":
        return ExactRadical(-self.sign, self.radicand)

    def __mul__(self, other) -> "ExactRadical":
        if not isinstance(other, ExactRadical):
            return NotImplemented
        return ExactRadical(self.sign * other.sign, self.radicand * other.radicand)

    def __truediv__(self, other) -> "ExactRadical":
        if not isinstance(other, ExactRadical):
            return NotImplemented
        if other.sign == 0:
            raise ZeroDivisionError("division by zero radical")
        return ExactRadical(self.sign * other.sign, self.radicand / other.radicand)

    def scale(self, c) -> "ExactRadical":
        """Multiply by an exact rational c."""
        c = _as_fraction(c)
        sign = (c.numerator > 0) - (c.numerator < 0)
        radicand = Fraction(self.num * c.numerator**2, self.den * c.denominator**2)
        return ExactRadical(self.sign * sign, radicand)

    def __add__(self, other) -> "ExactRadical":
        if not isinstance(other, ExactRadical):
            return NotImplemented
        return exact_sum(((1, self), (1, other)))

    def __sub__(self, other) -> "ExactRadical":
        if not isinstance(other, ExactRadical):
            return NotImplemented
        return self + (-other)

    # -- formatting --------------------------------------------------------

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        pre = "-" if self.sign < 0 else ""
        r = self.as_rational()
        if r is not None:
            r = abs(r)
            return f"{pre}{r.numerator}" if r.denominator == 1 else f"{pre}{r}"
        if self.den == 1:
            return f"{pre}sqrt({self.num})"
        return f"{pre}sqrt({self.num}/{self.den})"

    def __repr__(self) -> str:
        return f"ExactRadical({self})"


def _signed_sqrt(signed: int, square: Fraction) -> ExactRadical:
    """sign(signed) * sqrt(square), for square > 0."""
    return ExactRadical((signed > 0) - (signed < 0), square)


def exact_sum(terms) -> ExactRadical:
    """sum of c * f1 * f2 * ... over terms (c, f1, f2, ...), c an int and each f an ExactRadical.

    With r0 = a0/b0 the first nonzero term's radicand, c * sqrt(a/b) is
    (c * isqrt(a*b*a0*b0) / b) * sqrt(r0) / a0: one integer numerator runs over a
    common denominator and one Fraction is built at the end.  A term off r0's class
    raises ValueError as the fold of ``+`` would, unless the partial sum is exactly 0.
    """
    num, den, s0 = 0, 1, 0  # partial sum = num / (den * a0) * sqrt(a0 / b0), s0 = a0 * b0
    for c, *factors in terms:
        a = b = 1
        for f in factors:
            c, a, b = c * f.sign, a * f.radicand.numerator, b * f.radicand.denominator
        if c == 0:
            continue
        root = math.isqrt(a * b * s0)
        if s0 == 0 or root * root != a * b * s0:
            if num:
                raise ValueError(
                    "cannot add incompatible radicals "
                    f"{_signed_sqrt(num, Fraction(num * num, den * den * s0))} and "
                    f"{_signed_sqrt(c, Fraction(c * c * a, b))} exactly")
            num, den, s0 = c * a, 1, a * b
        elif den % b:
            num, den = num * b + c * root * den, den * b
        else:
            num += c * root * (den // b)
    return _signed_sqrt(num, Fraction(num * num, den * den * s0)) if num else ExactRadical.zero()
