"""Exact radical and half-integer arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotinv.halfint import HalfInt, halfint, halfint_range
from rotinv.radical import ExactRadical


rationals = st.fractions(
    min_value=Fraction(-200), max_value=Fraction(200), max_denominator=60
)
nonneg_rationals = st.fractions(
    min_value=Fraction(0), max_value=Fraction(500), max_denominator=60
)


class TestHalfInt:
    def test_coercions(self):
        assert halfint(2).twice == 4
        assert halfint(0.5).twice == 1
        assert halfint(Fraction(3, 2)).twice == 3
        assert halfint(HalfInt(5)) == HalfInt(5)

    def test_rejects_non_half_integers(self):
        with pytest.raises(ValueError):
            halfint(0.3)
        with pytest.raises(ValueError):
            halfint(Fraction(1, 3))
        with pytest.raises(TypeError):
            halfint("1/2")

    def test_arithmetic_and_order(self):
        assert HalfInt(3) + HalfInt(1) == HalfInt(4)
        assert HalfInt(3) - 1 == HalfInt(1)
        assert -HalfInt(3) == HalfInt(-3)
        assert HalfInt(1) < HalfInt(2)
        assert str(HalfInt(3)) == "3/2"
        assert str(HalfInt(4)) == "2"

    def test_range(self):
        values = halfint_range(0.5, 2.5)
        assert values == (HalfInt(1), HalfInt(3), HalfInt(5))
        assert halfint_range(2, 1) == ()


class TestExactRadical:
    def test_canonical_form(self):
        r = ExactRadical.sqrt(Fraction(8, 12))
        assert (r.num, r.den) == (2, 3)
        assert ExactRadical.sqrt(0) == ExactRadical.zero()

    @pytest.mark.parametrize("sign, radicand, error", [
        (1, Fraction(-2, 3), ValueError),
        (1, 0.5, TypeError),
        (0, Fraction(1, 2), ValueError),
        (1, Fraction(0), ValueError),
        (2, Fraction(1, 2), ValueError),
    ])
    def test_rejects_invalid_fields(self, sign, radicand, error):
        with pytest.raises(error):
            ExactRadical(sign, radicand)

    def test_radicand_is_the_one_stored_form(self):
        r = ExactRadical(-1, Fraction(8, 12))
        assert r == -ExactRadical.sqrt(Fraction(2, 3))
        assert (r.num, r.den) == (2, 3)
        with pytest.raises(AttributeError):
            r.num = 4

    def test_known_values(self):
        assert float(ExactRadical.sqrt(Fraction(1, 4))) == 0.5
        assert ExactRadical.from_rational(Fraction(-3, 2)).as_rational() == Fraction(-3, 2)
        assert ExactRadical.sqrt(2).as_rational() is None

    def test_addition_same_class(self):
        a = ExactRadical.sqrt(Fraction(3, 4))       # sqrt(3)/2
        b = ExactRadical.sqrt(3).scale(Fraction(1, 3))  # sqrt(3)/3
        total = a + b
        assert total == ExactRadical.sqrt(3).scale(Fraction(5, 6))

    def test_addition_incompatible_raises(self):
        with pytest.raises(ValueError):
            ExactRadical.sqrt(2) + ExactRadical.sqrt(3)

    def test_cancellation_is_exact_zero(self):
        a = ExactRadical.sqrt(Fraction(7, 5))
        assert (a - a).is_zero
        assert (a + (-a)) == ExactRadical.zero()

    def test_str_forms(self):
        assert str(ExactRadical.zero()) == "0"
        assert str(ExactRadical.from_rational(Fraction(3, 4))) == "3/4"
        assert str(-ExactRadical.sqrt(Fraction(5, 14))) == "-sqrt(5/14)"
        assert str(ExactRadical.sqrt(7)) == "sqrt(7)"

    @given(r=nonneg_rationals)
    def test_sqrt_roundtrip_square(self, r):
        assert ExactRadical.sqrt(r).square() == r

    @given(a=rationals, b=nonneg_rationals)
    @settings(max_examples=200)
    def test_scale_matches_float(self, a, b):
        r = ExactRadical.sqrt(b).scale(a)
        assert math.isclose(float(r), float(a) * math.sqrt(float(b)), abs_tol=1e-12)

    @given(a=nonneg_rationals, b=nonneg_rationals)
    @settings(max_examples=200)
    def test_product_float_consistency(self, a, b):
        lhs = float(ExactRadical.sqrt(a) * ExactRadical.sqrt(b))
        assert math.isclose(lhs, math.sqrt(float(a * b)), rel_tol=1e-14, abs_tol=1e-15)

    @given(a=nonneg_rationals)
    @settings(max_examples=200)
    def test_float_square_within_ulps(self, a):
        # (to_float)**2 must reproduce the radicand to a few ulps
        x = float(ExactRadical.sqrt(a))
        target = float(a)
        assert abs(x * x - target) <= 4 * math.ulp(max(target, 1e-300))

    @given(a=nonneg_rationals, c=rationals)
    @settings(max_examples=200)
    def test_rational_multiples_add(self, a, c):
        base = ExactRadical.sqrt(a)
        scaled = base.scale(c)
        total = base + scaled
        assert total == base.scale(1 + c)

    def test_ratio(self):
        a = ExactRadical.sqrt(Fraction(9, 2))
        b = ExactRadical.sqrt(Fraction(1, 2))
        assert a.ratio(b) == Fraction(3)
        assert ExactRadical.sqrt(2).ratio(ExactRadical.sqrt(3)) is None
        with pytest.raises(ZeroDivisionError):
            a.ratio(ExactRadical.zero())
