"""Half-integer quantum numbers stored exactly as doubled integers.

Spins and projections (j, m, J, M, K, q) are half-integers.  Storing 2j as
an int makes equality, parity checks and phase factors exact, which the
closed-form geometry downstream depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, order=True)
class HalfInt:
    """A half-integer j represented by ``twice`` = 2j."""

    twice: int

    def __post_init__(self):
        if not isinstance(self.twice, int):
            raise TypeError(f"twice must be an int, got {type(self.twice).__name__}")

    @property
    def value(self) -> Fraction:
        return Fraction(self.twice, 2)

    def __add__(self, other) -> "HalfInt":
        return HalfInt(self.twice + halfint(other).twice)

    def __sub__(self, other) -> "HalfInt":
        return HalfInt(self.twice - halfint(other).twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __float__(self) -> float:
        return self.twice / 2.0

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self})"


def halfint(x) -> HalfInt:
    """Coerce an int, float, Fraction or HalfInt to a HalfInt.

    Floats and Fractions must be exact multiples of 1/2.
    """
    if isinstance(x, HalfInt):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a spin value")
    if isinstance(x, int):
        return HalfInt(2 * x)
    if isinstance(x, Fraction):
        twice = 2 * x
        if twice.denominator != 1:
            raise ValueError(f"{x} is not a half-integer")
        return HalfInt(int(twice))
    if isinstance(x, float):
        twice = 2.0 * x
        if twice != round(twice):
            raise ValueError(f"{x} is not a half-integer")
        return HalfInt(round(twice))
    raise TypeError(f"cannot interpret {x!r} as a half-integer")


def halfint_range(lo, hi) -> tuple[HalfInt, ...]:
    """All half-integers lo, lo+1, ..., hi (inclusive, empty if hi < lo)."""
    lo, hi = halfint(lo), halfint(hi)
    return tuple(HalfInt(t) for t in range(lo.twice, hi.twice + 1, 2))
