"""Wigner symbol values against independent oracles.

The oracles here are deliberately separate routes:
  * a float Racah sum coded from scratch (no radicals, no caching),
  * closed forms for one stretched/zero argument,
  * the contraction of four 3-j symbols over all projections (for 6-j),
  * sympy.physics.wigner on a deterministic grid, and exactly (square and
    sign) on seeded symbols whose Racah sums have at least three terms.
Expected literals below were frozen from those oracles; the L digest was
recorded before the Racah sum became one kernel.
"""

import hashlib
import math
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Rational
from sympy.physics.wigner import wigner_3j, wigner_6j

from rotinv.radical import ExactRadical
from rotinv.states import SpinPair, build_l_matrix
from rotinv.wigner import (
    clebsch_gordan,
    six_j,
    three_j,
    verify_orthogonality_sum,
    verify_recoupling_sum,
)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def brute_three_j(j1, j2, j3, m1, m2, m3) -> float:
    """Float Racah sum, written independently of the package internals."""
    j1, j2, j3, m1, m2, m3 = (Fraction(x) for x in (j1, j2, j3, m1, m2, m3))
    if m1 + m2 + m3 != 0 or not abs(j1 - j2) <= j3 <= j1 + j2:
        return 0.0
    if any(abs(m) > j for j, m in ((j1, m1), (j2, m2), (j3, m3))):
        return 0.0

    def f(x: Fraction) -> int:
        assert x.denominator == 1 and x >= 0
        return factorial(int(x))

    delta = math.sqrt(
        f(j1 + j2 - j3) * f(j1 - j2 + j3) * f(-j1 + j2 + j3) / f(j1 + j2 + j3 + 1)
    )
    pre = math.sqrt(
        f(j1 + m1) * f(j1 - m1) * f(j2 + m2) * f(j2 - m2) * f(j3 + m3) * f(j3 - m3)
    )
    t_lo = int(max(0, j2 - j3 - m1, j1 - j3 + m2))
    t_hi = int(min(j1 + j2 - j3, j1 - m1, j2 + m2))
    total = 0.0
    for t in range(t_lo, t_hi + 1):
        den = (
            factorial(t)
            * f(j1 + j2 - j3 - t)
            * f(j1 - m1 - t)
            * f(j2 + m2 - t)
            * f(j3 - j2 + m1 + t)
            * f(j3 - j1 - m2 + t)
        )
        total += (-1) ** t / den
    return (-1) ** int(j1 - j2 - m3) * delta * pre * total


def six_j_by_contraction(j1, j2, j3, l1, l2, l3) -> ExactRadical:
    """6-j as the projection-summed product of four 3-j symbols (exact)."""
    j1, j2, j3, l1, l2, l3 = (Fraction(x) for x in (j1, j2, j3, l1, l2, l3))

    def projections(j):
        m = -j
        while m <= j:
            yield m
            m += 1

    total = ExactRadical.zero()
    for m1 in projections(j1):
        for m2 in projections(j2):
            m3 = -m1 - m2
            if abs(m3) > j3:
                continue
            for lam2 in projections(l2):
                lam3 = m1 + lam2
                lam1 = m1 + m2 + lam2
                if abs(lam3) > l3 or abs(lam1) > l1:
                    continue
                exponent = l1 + l2 + l3 + lam1 + lam2 + lam3
                assert exponent.denominator == 1
                term = (
                    three_j(j1, j2, j3, m1, m2, m3)
                    * three_j(j1, l2, l3, m1, lam2, -lam3)
                    * three_j(l1, j2, l3, -lam1, m2, lam3)
                    * three_j(l1, l2, j3, lam1, -lam2, m3)
                ).scale((-1) ** int(exponent))
                total = total + term
    return total


def spins_upto(max_twice: int):
    return [Fraction(t, 2) for t in range(max_twice + 1)]


# ---------------------------------------------------------------------------
# 3-j
# ---------------------------------------------------------------------------

class TestThreeJ:
    def test_frozen_values(self):
        assert three_j(1, 1, 0, 0, 0, 0) == -ExactRadical.sqrt(Fraction(1, 3))
        assert three_j(0.5, 0.5, 1, 0.5, -0.5, 0) == ExactRadical.sqrt(Fraction(1, 6))

    def test_selection_rule_zeros(self):
        assert three_j(1, 1, 1, 1, 0, 0).is_zero          # m sum != 0
        assert three_j(1, 1, 3, 0, 0, 0).is_zero          # triangle violated
        assert three_j(1, 2, 1, 2, -2, 0).is_zero         # |m| > j
        assert three_j(1, 1, 1, 0.5, -0.5, 0).is_zero     # parity of (j, m)

    def test_stretched_closed_form(self):
        # (j j 0; m -m 0) = (-1)**(j-m) / sqrt(2j+1)
        for tj in range(0, 9):
            j = Fraction(tj, 2)
            for tm in range(-tj, tj + 1, 2):
                m = Fraction(tm, 2)
                expected = ExactRadical.sqrt(Fraction(1, tj + 1)).scale(
                    (-1) ** int(j - m)
                )
                assert three_j(j, j, 0, m, -m, 0) == expected

    def test_against_brute_racah(self):
        for tj1 in range(0, 7):
            for tj2 in range(0, 7):
                for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        for tm2 in range(-tj2, tj2 + 1, 2):
                            args = (
                                Fraction(tj1, 2), Fraction(tj2, 2), Fraction(tj3, 2),
                                Fraction(tm1, 2), Fraction(tm2, 2),
                                Fraction(-tm1 - tm2, 2),
                            )
                            assert float(three_j(*args)) == pytest.approx(
                                brute_three_j(*args), abs=1e-12
                            )

    def test_against_sympy_grid(self):
        for tj1 in (1, 2, 3, 5, 8):
            for tj2 in (1, 2, 4, 7):
                for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        args = (
                            Fraction(tj1, 2), Fraction(tj2, 2), Fraction(tj3, 2),
                            Fraction(tm1, 2), Fraction(min(tj2, tj3 - tm1 if abs(tj3 - tm1) <= tj2 else tj2), 2),
                            None,
                        )
                        tm2 = args[4] * 2
                        tm3 = -tm1 - tm2
                        if abs(tm3) > tj3:
                            continue
                        vals = (args[0], args[1], args[2], args[3], args[4], Fraction(int(tm3), 2))
                        assert float(three_j(*vals)) == pytest.approx(
                            float(wigner_3j(*vals)), abs=1e-13
                        )

    @given(
        tj1=st.integers(0, 12), tj2=st.integers(0, 12),
        k3=st.integers(0, 12), k1=st.integers(0, 24), k2=st.integers(0, 24),
    )
    @settings(max_examples=150, deadline=None)
    def test_column_orthogonality_exact(self, tj1, tj2, k3, k1, k2):
        # sum_{m1 m2} (2 j3 + 1) 3j(.. m3) 3j(.. m3') = delta(m3, m3') exactly
        lo = abs(tj1 - tj2)
        tj3 = lo + 2 * (k3 % (((tj1 + tj2 - lo) // 2) + 1))
        tm3 = -tj3 + 2 * (k1 % (tj3 + 1))
        tm3p = -tj3 + 2 * (k2 % (tj3 + 1))
        total = ExactRadical.zero()
        for tm1 in range(-tj1, tj1 + 1, 2):
            tm2 = -tm1 - tm3
            if abs(tm2) > tj2:
                continue
            # second factor vanishes by the projection rule unless m3' == m3
            term = three_j(
                Fraction(tj1, 2), Fraction(tj2, 2), Fraction(tj3, 2),
                Fraction(tm1, 2), Fraction(tm2, 2), Fraction(tm3, 2),
            ) * three_j(
                Fraction(tj1, 2), Fraction(tj2, 2), Fraction(tj3, 2),
                Fraction(tm1, 2), Fraction(tm2, 2), Fraction(tm3p, 2),
            )
            total = total + term.scale(tj3 + 1)
        expected = ExactRadical.one() if tm3 == tm3p else ExactRadical.zero()
        assert total == expected


# ---------------------------------------------------------------------------
# 6-j
# ---------------------------------------------------------------------------

class TestSixJ:
    def test_frozen_values(self):
        assert six_j(0.5, 0.5, 1, 0.5, 0.5, 1) == ExactRadical.from_rational(Fraction(1, 6))
        assert six_j(1.5, 1.5, 0, 1.5, 1.5, 1) == ExactRadical.from_rational(Fraction(1, 4))
        assert six_j(1, 1, 3, 1, 1, 1).is_zero  # triad (1,1,3) fails triangle

    def test_zero_argument_closed_form(self):
        # {j1 j2 J; j2 j1 0} = (-1)**(j1+j2+J) / sqrt((2j1+1)(2j2+1))
        for tj1 in range(0, 7):
            for tj2 in range(tj1, 9):
                for tJ in range(tj2 - tj1, tj1 + tj2 + 1, 2):
                    phase = (-1) ** ((tj1 + tj2 + tJ) // 2)
                    expected = ExactRadical.sqrt(
                        Fraction(1, (tj1 + 1) * (tj2 + 1))
                    ).scale(phase)
                    got = six_j(
                        Fraction(tj1, 2), Fraction(tj2, 2), Fraction(tJ, 2),
                        Fraction(tj2, 2), Fraction(tj1, 2), 0,
                    )
                    assert got == expected

    def test_matches_three_j_contraction(self):
        cases = [
            (0.5, 0.5, 1, 0.5, 0.5, 1),
            (1, 1, 1, 1, 1, 1),
            (1.5, 1.5, 2, 1.5, 1.5, 1),
            (2, 2, 2, 2, 2, 2),
            (1.5, 2.5, 2, 2.5, 1.5, 3),
            (2, 3, 4, 3, 2, 1),
            (4, 3, 2, 1, 2, 3),
            (2.5, 2.5, 4, 2.5, 2.5, 0),
        ]
        for args in cases:
            assert six_j(*args) == six_j_by_contraction(*args)

    def test_against_sympy_grid(self):
        for ta in (1, 2, 3):
            for tb in (2, 3):
                for tc in range(abs(ta - tb), ta + tb + 1, 2):
                    for td in (1, 2, 3):
                        for te in (2, 4):
                            for tf in range(0, 7):
                                args = tuple(Fraction(t, 2) for t in (ta, tb, tc, td, te, tf))
                                try:
                                    ref = float(wigner_6j(*args))
                                except ValueError:
                                    ref = 0.0
                                assert float(six_j(*args)) == pytest.approx(ref, abs=1e-13)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_contraction_property(self, data):
        # six_j == contraction of four three_j for spins <= 4
        ta = data.draw(st.integers(0, 5))
        tb = data.draw(st.integers(0, 5))
        tc = data.draw(st.integers(abs(ta - tb), ta + tb).filter(lambda t: (ta + tb + t) % 2 == 0))
        td = data.draw(st.integers(0, 5))
        te_lo, te_hi = abs(td - tc), td + tc
        te = data.draw(st.integers(te_lo, te_hi).filter(lambda t: (td + tc + t) % 2 == 0))
        tf_lo = max(abs(ta - te), abs(td - tb))
        tf_hi = min(ta + te, td + tb)
        if tf_lo > tf_hi or (ta + te + tf_lo) % 2 != (td + tb + tf_lo) % 2:
            return
        tf = data.draw(st.integers(tf_lo, tf_hi).filter(lambda t: (ta + te + t) % 2 == 0))
        args = tuple(Fraction(t, 2) for t in (ta, tb, tc, td, te, tf))
        assert six_j(*args) == six_j_by_contraction(*args)


# ---------------------------------------------------------------------------
# Clebsch-Gordan
# ---------------------------------------------------------------------------

class TestClebschGordan:
    def test_top_state_couples_to_one(self):
        for tj in range(0, 8):
            j = Fraction(tj, 2)
            assert clebsch_gordan(j, j, j, j, 2 * j, 2 * j) == ExactRadical.one()

    def test_singlet_value(self):
        assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0) == ExactRadical.sqrt(Fraction(1, 2))
        assert clebsch_gordan(0.5, -0.5, 0.5, 0.5, 0, 0) == -ExactRadical.sqrt(Fraction(1, 2))

    def test_projection_selection_rule(self):
        assert clebsch_gordan(1, 1, 1, 0, 2, 0).is_zero

    def test_orthonormal_rows(self):
        # sum over (j1 m1 j2 m2) of CG(...JM) CG(...J'M') = delta delta, exact
        tj1, tj2 = 2, 3
        for tJ in range(1, 6, 2):
            for tJp in range(1, 6, 2):
                for tM in range(-tJ, tJ + 1, 2):
                    for tMp in range(-tJp, tJp + 1, 2):
                        total = ExactRadical.zero()
                        for tm1 in range(-tj1, tj1 + 1, 2):
                            tm2 = tM - tm1
                            if abs(tm2) > tj2:
                                continue
                            if tm1 + tm2 != tMp:
                                continue
                            total = total + clebsch_gordan(
                                Fraction(tj1, 2), Fraction(tm1, 2),
                                Fraction(tj2, 2), Fraction(tm2, 2),
                                Fraction(tJ, 2), Fraction(tM, 2),
                            ) * clebsch_gordan(
                                Fraction(tj1, 2), Fraction(tm1, 2),
                                Fraction(tj2, 2), Fraction(tm2, 2),
                                Fraction(tJp, 2), Fraction(tMp, 2),
                            )
                        expected = (
                            ExactRadical.one()
                            if (tJ, tM) == (tJp, tMp)
                            else ExactRadical.zero()
                        )
                        assert total == expected


# ---------------------------------------------------------------------------
# orthogonality and recoupling sums
# ---------------------------------------------------------------------------

class TestIdentitySums:
    def test_orthogonality_is_delta_exact(self):
        for a in spins_upto(4):
            for b in spins_upto(4):
                for c in spins_upto(3):
                    d = a + b - c  # keep triads integral
                    if d < 0:
                        continue
                    js = [
                        J for J in spins_upto(12)
                        if abs(a - b) <= J <= a + b and abs(c - d) <= J <= c + d
                        and (a + b + J).denominator == 1 and (c + d + J).denominator == 1
                    ]
                    for J in js:
                        for Jp in js:
                            got = verify_orthogonality_sum(a, b, c, d, J, Jp)
                            want = ExactRadical.one() if J == Jp else ExactRadical.zero()
                            assert got == want, (a, b, c, d, J, Jp)

    def test_recoupling_matches_six_j_exact(self):
        for a in spins_upto(4):
            for b in spins_upto(4):
                for c in spins_upto(4):
                    for d in spins_upto(3):
                        if (a + d).denominator != 1 or (b + c).denominator != 1:
                            continue
                        js = [
                            J for J in spins_upto(8)
                            if abs(a - b) <= J <= a + b and abs(c - d) <= J <= c + d
                            and (a + b + J).denominator == 1
                        ]
                        jps = [
                            J for J in spins_upto(8)
                            if abs(a - c) <= J <= a + c and abs(b - d) <= J <= b + d
                            and (a + c + J).denominator == 1
                        ]
                        for J in js[:2]:
                            for Jp in jps[:2]:
                                got = verify_recoupling_sum(a, b, c, d, J, Jp)
                                phase = (-1) ** int(J + Jp)
                                want = six_j(a, b, J, d, c, Jp).scale(phase)
                                assert got == want, (a, b, c, d, J, Jp)

    def test_recoupling_rejects_half_integer_k(self):
        with pytest.raises(ValueError):
            verify_recoupling_sum(0.5, 0, 0, 0, 0.5, 0.5)

    def test_appendix_sum_values(self):
        # second sum of the -1/N2 identity: J = j2-j1, J' = j1+j2
        assert verify_recoupling_sum(1.5, 1.5, 1.5, 1.5, 0, 3) == \
            ExactRadical.from_rational(Fraction(-1, 4))
        assert verify_recoupling_sum(1.5, 2.5, 2.5, 1.5, 1, 4) == \
            ExactRadical.from_rational(Fraction(-1, 6))
        # degenerate all-zero spins: single K = 0 term
        assert verify_recoupling_sum(0, 0, 0, 0, 0, 0) == ExactRadical.one()

    def test_first_appendix_sum_vanishes(self):
        # orthogonality sum with J = j2-j1 != J' = j1+j2 is zero
        for (j1, j2) in ((1.5, 1.5), (1.5, 2.5), (2.5, 4.5)):
            got = verify_orthogonality_sum(j1, j2, j2, j1, j2 - j1, j1 + j2)
            assert got.is_zero


# ---------------------------------------------------------------------------
# exact pins of the Racah kernel
# ---------------------------------------------------------------------------

def is_triad(ta, tb, tc) -> bool:
    return abs(ta - tb) <= tc <= ta + tb and (ta + tb + tc) % 2 == 0


def seeded_six_j(count, seed):
    """Doubled 6-j arguments up to 16 whose Racah sum has at least three terms."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        ta, tb, td, tf = (rng.randint(0, 16) for _ in range(4))
        tc = rng.randrange(abs(ta - tb), min(ta + tb, 16) + 1, 2)  # (a, b, c) is a triad
        te = rng.randrange(abs(td - tc), min(td + tc, 16) + 1, 2)  # so is (d, e, c)
        lows = (ta + tb + tc, ta + te + tf, td + tb + tf, td + te + tc)
        highs = (ta + tb + td + te, tb + tc + te + tf, tc + ta + tf + td)
        if is_triad(ta, te, tf) and is_triad(td, tb, tf) and min(highs) - max(lows) >= 4:
            out.append((ta, tb, tc, td, te, tf))
    return out


def seeded_three_j(count, seed):
    """Doubled 3-j arguments with j up to 8 whose Racah sum has at least three terms."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        tj1, tj2, tj3 = (rng.randint(0, 16) for _ in range(3))
        if not is_triad(tj1, tj2, tj3):
            continue
        tm1, tm2 = rng.randrange(-tj1, tj1 + 1, 2), rng.randrange(-tj2, tj2 + 1, 2)
        lows = (0, tj2 - tj3 - tm1, tj1 - tj3 + tm2)
        highs = (tj1 + tj2 - tj3, tj1 - tm1, tj2 + tm2)
        if abs(tm1 + tm2) <= tj3 and min(highs) - max(lows) >= 4:
            out.append((tj1, tj2, tj3, tm1, tm2, -tm1 - tm2))
    return out


def assert_same_exact(got: ExactRadical, ref, args):
    """Exact square and sign of a sympy value (zeros from cancelling sums included)."""
    square = ref ** 2
    assert got.radicand == Fraction(int(square.p), int(square.q)), args
    assert got.sign == (1 if ref > 0 else -1 if ref < 0 else 0), args


class TestExactPins:
    def test_six_j_against_sympy_exact(self):
        for args in seeded_six_j(40, seed=6):
            assert_same_exact(six_j(*(Fraction(t, 2) for t in args)),
                              wigner_6j(*(Rational(t, 2) for t in args)), args)

    def test_three_j_against_sympy_exact(self):
        for args in seeded_three_j(100, seed=3):
            assert_same_exact(three_j(*(Fraction(t, 2) for t in args)),
                              wigner_3j(*(Rational(t, 2) for t in args)), args)

    def test_l_matrix_digest(self):
        digest = hashlib.sha256()
        for n1 in range(2, 13):
            for n2 in range(n1, n1 + 9):
                for row in build_l_matrix(SpinPair(n1, n2)).exact:
                    for entry in row:
                        digest.update(repr(entry).encode())
        assert digest.hexdigest() == (
            "cffcccaeae859d111b394677845ff401fecf7af3ccdf7262d7147f1c115290ef")
