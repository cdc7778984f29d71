"""Exact Wigner 3-j and 6-j symbols and Clebsch-Gordan coefficients.

All symbols are evaluated with Racah's single-sum formulas over
big-integer factorials and returned as :class:`ExactRadical` values
(signed square roots of rationals), so selection-rule zeros and the 6-j
orthogonality/recoupling identities hold exactly, not just to rounding.
Phase conventions follow Condon-Shortley as in Edmonds, "Angular Momentum
in Quantum Mechanics".

Arguments may be ints, half-integer floats/Fractions, or HalfInt.  Tuples
that violate triangle or projection rules evaluate to exact zero, matching
the usual mathematical convention.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .halfint import halfint
from .radical import ExactRadical, exact_sum

__all__ = [
    "three_j",
    "six_j",
    "clebsch_gordan",
    "verify_orthogonality_sum",
    "verify_recoupling_sum",
]


def _triangle_ok(ta: int, tb: int, tc: int) -> bool:
    # doubled args; requires |a-b| <= c <= a+b and integer perimeter
    return abs(ta - tb) <= tc <= ta + tb and (ta + tb + tc) % 2 == 0


def _phase(texp: int) -> int:
    """(-1)**(texp/2) for an even doubled exponent."""
    if texp % 2 != 0:
        raise ValueError("phase exponent is not an integer")
    return -1 if (texp // 2) % 2 else 1


def _tri_sq(ta: int, tb: int, tc: int) -> Fraction:
    """Squared triangle coefficient (a+b-c)!(a-b+c)!(-a+b+c)!/(a+b+c+1)!."""
    return Fraction(
        factorial((ta + tb - tc) // 2)
        * factorial((ta - tb + tc) // 2)
        * factorial((-ta + tb + tc) // 2),
        factorial((ta + tb + tc) // 2 + 1),
    )


@lru_cache(maxsize=None)
def _three_j(tj1: int, tj2: int, tj3: int, tm1: int, tm2: int, tm3: int) -> ExactRadical:
    if tm1 + tm2 + tm3 != 0:
        return ExactRadical.zero()
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
        if abs(tm) > tj or (tj - tm) % 2 != 0:
            return ExactRadical.zero()
    if not _triangle_ok(tj1, tj2, tj3):
        return ExactRadical.zero()

    # Racah sum; all factorial arguments below are ints by the parity checks.
    t_min = max(0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2)
    t_max = min((tj1 + tj2 - tj3) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = Fraction(0)
    for t in range(t_min, t_max + 1):
        den = (
            factorial(t)
            * factorial((tj1 + tj2 - tj3) // 2 - t)
            * factorial((tj1 - tm1) // 2 - t)
            * factorial((tj2 + tm2) // 2 - t)
            * factorial((tj3 - tj2 + tm1) // 2 + t)
            * factorial((tj3 - tj1 - tm2) // 2 + t)
        )
        total += Fraction(-1 if t % 2 else 1, den)
    if total == 0:
        return ExactRadical.zero()

    radicand = _tri_sq(tj1, tj2, tj3)
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
        radicand *= factorial((tj + tm) // 2) * factorial((tj - tm) // 2)
    sign = _phase(tj1 - tj2 - tm3) * (1 if total > 0 else -1)
    return ExactRadical(sign, radicand * total * total)


@lru_cache(maxsize=None)
def _six_j(ta: int, tb: int, tc: int, td: int, te: int, tf: int) -> ExactRadical:
    triads = ((ta, tb, tc), (ta, te, tf), (td, tb, tf), (td, te, tc))
    for tri in triads:
        if not _triangle_ok(*tri):
            return ExactRadical.zero()

    t1 = (ta + tb + tc) // 2
    t2 = (ta + te + tf) // 2
    t3 = (td + tb + tf) // 2
    t4 = (td + te + tc) // 2
    t5 = (ta + tb + td + te) // 2
    t6 = (tb + tc + te + tf) // 2
    t7 = (tc + ta + tf + td) // 2
    total = Fraction(0)
    for t in range(max(t1, t2, t3, t4), min(t5, t6, t7) + 1):
        den = (
            factorial(t - t1)
            * factorial(t - t2)
            * factorial(t - t3)
            * factorial(t - t4)
            * factorial(t5 - t)
            * factorial(t6 - t)
            * factorial(t7 - t)
        )
        total += Fraction((-1 if t % 2 else 1) * factorial(t + 1), den)
    if total == 0:
        return ExactRadical.zero()

    radicand = Fraction(1)
    for tri in triads:
        radicand *= _tri_sq(*tri)
    return ExactRadical(1 if total > 0 else -1, radicand * total * total)


def three_j(j1, j2, j3, m1, m2, m3) -> ExactRadical:
    """Wigner 3-j symbol (j1 j2 j3; m1 m2 m3), exact."""
    return _three_j(
        halfint(j1).twice, halfint(j2).twice, halfint(j3).twice,
        halfint(m1).twice, halfint(m2).twice, halfint(m3).twice,
    )


def six_j(a, b, c, d, e, f) -> ExactRadical:
    """Wigner 6-j symbol {a b c; d e f}, exact."""
    return _six_j(
        halfint(a).twice, halfint(b).twice, halfint(c).twice,
        halfint(d).twice, halfint(e).twice, halfint(f).twice,
    )


def clebsch_gordan(j1, m1, j2, m2, J, M) -> ExactRadical:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | J M>, Condon-Shortley.

    Related to the 3-j symbol by
    <j1 m1; j2 m2 | J M> = (-1)**(j1-j2+M) sqrt(2J+1) (j1 j2 J; m1 m2 -M).
    """
    j1, j2, J = halfint(j1), halfint(j2), halfint(J)
    m1, m2, M = halfint(m1), halfint(m2), halfint(M)
    symbol = _three_j(j1.twice, j2.twice, J.twice, m1.twice, m2.twice, -M.twice)
    if symbol.is_zero:
        return symbol
    sign = _phase(j1.twice - j2.twice + M.twice)
    return symbol.scale(sign) * ExactRadical.sqrt(J.twice + 1)


def _k_range(ta: int, td: int, tb: int, tc: int):
    """Doubled K values allowed by the triads (a,d,K) and (b,c,K)."""
    lo = max(abs(ta - td), abs(tb - tc))
    hi = min(ta + td, tb + tc)
    if (ta + td) % 2 != (tb + tc) % 2:
        return range(0)
    start = lo if (lo + ta + td) % 2 == 0 else lo + 1
    return range(start, hi + 1, 2)


def verify_orthogonality_sum(a, b, c, d, J, Jp) -> ExactRadical:
    """sum_K (2J+1)(2K+1) {a b J; c d K} {a b J'; c d K}, exact.

    Equals delta(J, J') whenever the triads (a,b,J), (c,d,J) and the primed
    pair are all admissible (the 6-j orthogonality relation).
    """
    ta, tb, tc, td = (halfint(x).twice for x in (a, b, c, d))
    tJ, tJp = halfint(J).twice, halfint(Jp).twice
    return exact_sum(((tJ + 1) * (tK + 1), _six_j(ta, tb, tJ, tc, td, tK),
                      _six_j(ta, tb, tJp, tc, td, tK)) for tK in _k_range(ta, td, tb, tc))


def verify_recoupling_sum(a, b, c, d, J, Jp) -> ExactRadical:
    """sum_K (-1)**K (2K+1) {a b J; c d K} {a c J'; b d K}, exact.

    Equals (-1)**(J+J') {a b J; d c J'} (the 6-j recoupling relation).
    Requires the K range to consist of integers, otherwise the alternating
    sign is undefined; raises ValueError in that case.
    """
    ta, tb, tc, td = (halfint(x).twice for x in (a, b, c, d))
    tJ, tJp = halfint(J).twice, halfint(Jp).twice
    if (ta + td) % 2 != 0 or (tb + tc) % 2 != 0:
        raise ValueError("recoupling sum needs integer K: a+d and b+c must be integers")
    return exact_sum((_phase(tK) * (tK + 1), _six_j(ta, tb, tJ, tc, td, tK),
                      _six_j(ta, tc, tJp, tb, td, tK)) for tK in _k_range(ta, td, tb, tc))
