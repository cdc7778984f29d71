"""Exact Wigner 3-j and 6-j symbols and Clebsch-Gordan coefficients.

Both symbols are Racah single sums, evaluated by one integer kernel
(``_racah_sum``) and returned as :class:`ExactRadical` values, so
selection-rule zeros and the 6-j orthogonality/recoupling identities hold
exactly, not just to rounding. Phase conventions follow Condon-Shortley as
in Edmonds, "Angular Momentum in Quantum Mechanics".

Arguments are spins and projections: ints, or half-integer Fractions or
floats.  Each public function parses them once, by :func:`twice` (the one
spin parser of the package), into the doubled ints its kernel takes.  Tuples
that violate triangle or projection rules evaluate to exact zero, as usual.

The triangle coefficient has one home, ``_tri_sq`` (an unreduced integer
pair), the sign (-1)**(x/2) another, ``_phase``, and ``_symbol`` alone turns
a Racah sum and its prefactor into an ``ExactRadical``, with one gcd.  The
entries of the basis change L are assembled here, by ``_l_rows`` (which
``states.build_l_matrix`` caches): it reads ``_tri_sq`` once per row and once
per column and takes one ``_six_j_sum`` per entry, so L is the only store of
its symbols; the memo ``_six_j`` serves :func:`six_j` and the sums.
``_three_j`` keeps no memo: the dense oracle caches the matrices built from it.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .radical import ExactRadical, exact_sum

__all__ = [
    "three_j",
    "six_j",
    "clebsch_gordan",
    "verify_orthogonality_sum",
    "verify_recoupling_sum",
    "twice",
]


def twice(x) -> int:
    """2x as an int for a spin value: an integer, or a Fraction or float that is a half-integer.

    Exact ints and Fractions, the types the package passes, are tested first.
    Any other integer (a numpy integer, say) gives a Python int; bool is no spin.
    """
    kind = type(x)
    if kind is int:
        return 2 * x
    if kind is Fraction or isinstance(x, Fraction):
        num, den = x._numerator, x._denominator  # the slots: each public property is a call
        if den == 2:
            return num
        if den == 1:
            return 2 * num
        raise ValueError(f"{x} is not a half-integer")
    if isinstance(x, bool):
        raise TypeError("bool is not a spin value")
    if isinstance(x, float):
        doubled = 2.0 * x
        if not doubled.is_integer():  # nor is inf or nan
            raise ValueError(f"{x} is not a half-integer")
        return int(doubled)
    if isinstance(x, numbers.Integral):
        return 2 * int(x)
    raise TypeError(f"cannot interpret {x!r} as a half-integer")


def _triangle_ok(ta: int, tb: int, tc: int) -> bool:
    # doubled args; requires |a-b| <= c <= a+b and integer perimeter
    return abs(ta - tb) <= tc <= ta + tb and (ta + tb + tc) % 2 == 0


def _phase(texp: int) -> int:
    """(-1)**(texp/2) for an even doubled exponent; an odd one takes the floor of texp/2.

    Every caller passes an even exponent, or an odd one only beside a symbol
    that its selection rules have already made zero.
    """
    return -1 if (texp // 2) % 2 else 1


def _tri_sq(ta: int, tb: int, tc: int) -> tuple[int, int]:
    """Squared triangle coefficient (a+b-c)!(a-b+c)!(-a+b+c)!/(a+b+c+1)!.

    Returned unreduced, as a (numerator, denominator) pair of ints, so a caller
    multiplies its factors first and reduces once.
    """
    return (factorial((ta + tb - tc) // 2) * factorial((ta - tb + tc) // 2)
            * factorial((-ta + tb + tc) // 2), factorial((ta + tb + tc) // 2 + 1))


def _symbol(sign: int, num: int, den: int, total: Fraction) -> ExactRadical:
    """sign * sgn(total) * sqrt(num/den * total**2), reduced with one gcd; zero if total is 0."""
    top = total.numerator
    if not top:
        return ExactRadical.zero()
    return ExactRadical(sign if top > 0 else -sign,
                        Fraction(num * top ** 2, den * total.denominator ** 2))


def _racah_sum(lows: tuple[int, ...], highs: tuple[int, ...], rising: int) -> Fraction:
    """Racah's sum of (-1)**t (t+1)!**rising / (prod_l (t-l)! prod_h (h-t)!), exact.

    t runs over max(lows)..min(highs); term(t+1) = -term(t) p/q in ints, summed by Horner."""
    lo, hi = max(lows), min(highs)
    num = den = 1
    for t in range(hi - 1, lo - 1, -1):
        p = (t + 2) ** rising * prod(h - t for h in highs)
        q = prod(t + 1 - l for l in lows)
        num, den = den * q - p * num, den * q
    first = prod(factorial(lo - l) for l in lows) * prod(factorial(h - lo) for h in highs)
    return Fraction((-1 if lo % 2 else 1) * factorial(lo + 1) ** rising * num, first * den)


def _three_j(tj1: int, tj2: int, tj3: int, tm1: int, tm2: int, tm3: int) -> ExactRadical:
    if tm1 + tm2 + tm3 != 0:
        return ExactRadical.zero()
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
        if abs(tm) > tj or (tj - tm) % 2 != 0:
            return ExactRadical.zero()
    if not _triangle_ok(tj1, tj2, tj3):
        return ExactRadical.zero()

    # all doubled differences below are even by the parity checks
    total = _racah_sum((0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2),
                       ((tj1 + tj2 - tj3) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2), 0)
    num, den = _tri_sq(tj1, tj2, tj3)
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
        num *= factorial((tj + tm) // 2) * factorial((tj - tm) // 2)
    return _symbol(_phase(tj1 - tj2 - tm3), num, den, total)


def _six_j_sum(ta: int, tb: int, tc: int, td: int, te: int, tf: int) -> Fraction:
    """The Racah sum of {a b c; d e f} on doubled ints: the symbol over its triangle factors."""
    return _racah_sum(((ta + tb + tc) // 2, (ta + te + tf) // 2, (td + tb + tf) // 2,
                       (td + te + tc) // 2),
                      ((ta + tb + td + te) // 2, (tb + tc + te + tf) // 2,
                       (tc + ta + tf + td) // 2), 1)


@lru_cache(maxsize=None)
def _six_j(ta: int, tb: int, tc: int, td: int, te: int, tf: int) -> ExactRadical:
    """Racah's sum for {a b c; d e f} on doubled ints, memoized."""
    triads = ((ta, tb, tc), (ta, te, tf), (td, tb, tf), (td, te, tc))
    for tri in triads:
        if not _triangle_ok(*tri):
            return ExactRadical.zero()

    num = den = 1
    for tri in triads:
        n, d = _tri_sq(*tri)
        num, den = num * n, den * d
    return _symbol(1, num, den, _six_j_sum(ta, tb, tc, td, te, tf))


def _l_rows(tj1: int, tj2: int) -> tuple[tuple[ExactRadical, ...], ...]:
    """L[K, J] = sqrt((2K+1)(2J+1)) (-1)**(j1+j2+J) {j1 j2 J; j2 j1 K} on doubled spins.

    Rows K = 0 .. 2j1, columns ascending J = j2-j1 .. j1+j2, exact.  With
    Delta the squared triangle coefficient and S the symbol's Racah sum,
    L[K, J]**2 = A_J B_K S**2, where A_J = Delta(j1 j2 J)**2 (2J+1) and
    B_K = Delta(j1 j1 K) Delta(j2 j2 K) (2K+1).  A_J is worked out once per
    column and B_K once per row, as integer pairs; each entry then takes one
    Racah sum, which :func:`_symbol` turns into a radical with one gcd.
    """
    columns = []
    for tj in range(tj2 - tj1, tj1 + tj2 + 1, 2):
        num, den = _tri_sq(tj1, tj2, tj)
        columns.append((tj, _phase(tj1 + tj2 + tj), num * num * (tj + 1), den * den))
    rows = []
    for tk in range(0, 2 * tj1 + 2, 2):
        (num1, den1), (num2, den2) = _tri_sq(tj1, tj1, tk), _tri_sq(tj2, tj2, tk)
        b_num, b_den = num1 * num2 * (tk + 1), den1 * den2
        row = []
        for tj, phase, a_num, a_den in columns:
            # the Racah sum alone, not the six_j memo: L is the only store of its symbols
            row.append(_symbol(phase, a_num * b_num, a_den * b_den,
                               _six_j_sum(tj1, tj2, tj, tj2, tj1, tk)))
        rows.append(tuple(row))
    return tuple(rows)


def three_j(j1, j2, j3, m1, m2, m3) -> ExactRadical:
    """Wigner 3-j symbol (j1 j2 j3; m1 m2 m3), exact."""
    return _three_j(*map(twice, (j1, j2, j3, m1, m2, m3)))


def six_j(a, b, c, d, e, f) -> ExactRadical:
    """Wigner 6-j symbol {a b c; d e f}, exact."""
    return _six_j(*map(twice, (a, b, c, d, e, f)))


def clebsch_gordan(j1, m1, j2, m2, J, M) -> ExactRadical:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | J M>, Condon-Shortley.

    Related to the 3-j symbol by
    <j1 m1; j2 m2 | J M> = (-1)**(j1-j2+M) sqrt(2J+1) (j1 j2 J; m1 m2 -M).
    """
    return _clebsch_gordan(*map(twice, (j1, j2, J, m1, m2, M)))


def _clebsch_gordan(tj1: int, tj2: int, tJ: int, tm1: int, tm2: int, tM: int) -> ExactRadical:
    """:func:`clebsch_gordan` on doubled ints, in the 3-j order (j1 j2 J; m1 m2 M)."""
    symbol = _three_j(tj1, tj2, tJ, tm1, tm2, -tM)
    if symbol.is_zero:
        return symbol
    return symbol.scale(_phase(tj1 - tj2 + tM)) * ExactRadical.sqrt(tJ + 1)


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
    return exact_sum(_orthogonality_terms(*map(twice, (a, b, c, d, J, Jp))))


def _orthogonality_terms(ta: int, tb: int, tc: int, td: int, tJ: int, tJp: int) -> list:
    """The terms of :func:`verify_orthogonality_sum` on doubled ints, for ``exact_sum``."""
    return [((tJ + 1) * (tK + 1), _six_j(ta, tb, tJ, tc, td, tK), _six_j(ta, tb, tJp, tc, td, tK))
            for tK in _k_range(ta, td, tb, tc)]


def verify_recoupling_sum(a, b, c, d, J, Jp) -> ExactRadical:
    """sum_K (-1)**K (2K+1) {a b J; c d K} {a c J'; b d K}, exact.

    Equals (-1)**(J+J') {a b J; d c J'} (the 6-j recoupling relation).
    Requires the K range to consist of integers, otherwise the alternating
    sign is undefined; raises ValueError in that case.
    """
    ta, tb, tc, td, tJ, tJp = map(twice, (a, b, c, d, J, Jp))
    if (ta + td) % 2 != 0 or (tb + tc) % 2 != 0:
        raise ValueError("recoupling sum needs integer K: a+d and b+c must be integers")
    return exact_sum((_phase(tK) * (tK + 1), _six_j(ta, tb, tJ, tc, td, tK),
                      _six_j(ta, tc, tJp, tb, td, tK)) for tK in _k_range(ta, td, tb, tc))
