"""Exact arithmetic on signed square roots of rationals.

Wigner 3-j and 6-j symbols, Clebsch-Gordan coefficients and all the
closed-form state-space coordinates handled here have the shape
s*sqrt(p/q) with s in {-1, 0, +1} and p/q >= 0.  That domain is closed
under products and quotients, and under sums whenever the two radicands
differ by a perfect square of a rational -- which is exactly the situation
in the 6-j orthogonality/recoupling sums, where the K-dependent triangle
factors enter squared.  Sums outside that domain raise ValueError instead
of silently degrading to floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class ExactRadical:
    """The exact number sign * sqrt(num/den).

    Canonical form: num/den in lowest terms, den > 0, and sign == 0 iff
    num == 0 (in which case num = 0, den = 1).  Two radicals are equal iff
    their canonical fields are equal.
    """

    sign: int
    num: int
    den: int

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if self.num < 0 or self.den <= 0:
            raise ValueError("radicand must be nonnegative with positive denominator")
        if (self.sign == 0) != (self.num == 0):
            raise ValueError("sign == 0 iff num == 0")
        if self.num == 0 and self.den != 1:
            raise ValueError("zero must be stored as (0, 0, 1)")
        if math.gcd(self.num, self.den) != 1:
            raise ValueError("num/den must be in lowest terms")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, sign: int, num: int, den: int) -> "ExactRadical":
        if num == 0 or sign == 0:
            return cls(0, 0, 1)
        g = math.gcd(num, den)
        return cls(sign, num // g, den // g)

    @classmethod
    def zero(cls) -> "ExactRadical":
        return cls(0, 0, 1)

    @classmethod
    def one(cls) -> "ExactRadical":
        return cls(1, 1, 1)

    @classmethod
    def sqrt(cls, r) -> "ExactRadical":
        """The positive square root of a nonnegative rational."""
        r = _as_fraction(r)
        if r < 0:
            raise ValueError(f"cannot take a real square root of {r}")
        return cls._make(1 if r else 0, r.numerator, r.denominator)

    @classmethod
    def from_rational(cls, r) -> "ExactRadical":
        """The rational r itself, i.e. sign(r) * sqrt(r**2)."""
        r = _as_fraction(r)
        s = (r > 0) - (r < 0)
        return cls._make(s, r.numerator**2, r.denominator**2)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def square(self) -> Fraction:
        """The exact value of self**2."""
        return Fraction(self.num, self.den)

    def as_rational(self) -> Fraction | None:
        """The exact rational value, or None if irrational."""
        if _is_square(self.num) and _is_square(self.den):
            return self.sign * Fraction(math.isqrt(self.num), math.isqrt(self.den))
        return None

    def ratio(self, other: "ExactRadical") -> Fraction | None:
        """self/other as an exact Fraction if that quotient is rational."""
        if other.sign == 0:
            raise ZeroDivisionError("ratio to zero radical")
        if self.sign == 0:
            return Fraction(0)
        q = Fraction(self.num * other.den, self.den * other.num)
        if _is_square(q.numerator) and _is_square(q.denominator):
            return self.sign * other.sign * Fraction(
                math.isqrt(q.numerator), math.isqrt(q.denominator)
            )
        return None

    def __float__(self) -> float:
        if self.sign == 0:
            return 0.0
        # int / int is correctly rounded even for huge integers.
        return self.sign * math.sqrt(self.num / self.den)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "ExactRadical":
        return ExactRadical._make(-self.sign, self.num, self.den)

    def __abs__(self) -> "ExactRadical":
        return ExactRadical._make(abs(self.sign), self.num, self.den)

    def __mul__(self, other) -> "ExactRadical":
        if isinstance(other, ExactRadical):
            return ExactRadical._make(
                self.sign * other.sign, self.num * other.num, self.den * other.den
            )
        return self.scale(_as_fraction(other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ExactRadical":
        if isinstance(other, ExactRadical):
            if other.sign == 0:
                raise ZeroDivisionError("division by zero radical")
            return ExactRadical._make(
                self.sign * other.sign, self.num * other.den, self.den * other.num
            )
        return self.scale(1 / _as_fraction(other))

    def scale(self, c) -> "ExactRadical":
        """Multiply by an exact rational c."""
        c = _as_fraction(c)
        s = (c > 0) - (c < 0)
        return ExactRadical._make(
            self.sign * s,
            self.num * c.numerator**2,
            self.den * c.denominator**2,
        )

    def __add__(self, other) -> "ExactRadical":
        if not isinstance(other, ExactRadical):
            other = ExactRadical.from_rational(_as_fraction(other))
        if other.sign == 0:
            return self
        if self.sign == 0:
            return other
        rho = self.ratio(other)
        if rho is None:
            raise ValueError(
                f"cannot add incompatible radicals {self} and {other} exactly"
            )
        return other.scale(1 + rho)

    __radd__ = __add__

    def __sub__(self, other) -> "ExactRadical":
        if not isinstance(other, ExactRadical):
            other = ExactRadical.from_rational(_as_fraction(other))
        return self + (-other)

    def __rsub__(self, other) -> "ExactRadical":
        return (-self) + other

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
