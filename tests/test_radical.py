"""Exact radical arithmetic and the spin parser."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotinv.radical import ExactRadical, exact_sum
from rotinv.wigner import six_j, twice, verify_orthogonality_sum, verify_recoupling_sum


rationals = st.fractions(
    min_value=Fraction(-200), max_value=Fraction(200), max_denominator=60
)
nonneg_rationals = st.fractions(
    min_value=Fraction(0), max_value=Fraction(500), max_denominator=60
)


class TestTwice:
    def test_coercions(self):
        assert twice(2) == 4
        assert twice(-3) == -6
        assert twice(0.5) == 1
        assert twice(-1.5) == -3
        assert twice(Fraction(3, 2)) == 3

    def test_fractions_take_the_fast_path(self):
        assert twice(Fraction(7, 2)) == 7
        assert twice(Fraction(4)) == 8
        assert twice(Fraction(-5, 2)) == -5
        assert type(twice(Fraction(7, 2))) is int and type(twice(Fraction(4))) is int

    def test_subclasses_take_the_general_path(self):
        class Spin(Fraction):
            pass

        class Rank(int):
            pass

        assert twice(Spin(3, 2)) == 3 and type(twice(Spin(3, 2))) is int
        assert twice(Rank(2)) == 4
        with pytest.raises(ValueError) as err:
            twice(Spin(1, 4))
        assert str(err.value) == "1/4 is not a half-integer"

    def test_result_is_an_int(self):
        for x in (2, -3, 0.5, -1.5, Fraction(3, 2), Fraction(-1, 2), Fraction(0)):
            assert type(twice(x)) is int

    def test_numpy_integers_give_python_ints(self):
        for x in (np.int64(3), np.int32(-2), np.uint8(5), np.int64(2 ** 40)):
            assert twice(x) == 2 * int(x) and type(twice(x)) is int
        with pytest.raises(TypeError):
            twice(np.True_)  # numpy's bool is no integer to numbers.Integral

    def test_rejects_non_half_integers(self):
        with pytest.raises(ValueError):
            twice(0.3)
        with pytest.raises(ValueError):
            twice(Fraction(1, 3))
        with pytest.raises(TypeError):
            twice("1/2")
        with pytest.raises(TypeError):
            twice(1.0j)

    @pytest.mark.parametrize("bad, error, message", [
        (0.25, ValueError, "0.25 is not a half-integer"),
        (True, TypeError, "bool is not a spin value"),
        ("x", TypeError, "cannot interpret 'x' as a half-integer"),
        (Fraction(1, 3), ValueError, "1/3 is not a half-integer"),
        (Fraction(1, 4), ValueError, "1/4 is not a half-integer"),
    ])
    def test_messages(self, bad, error, message):
        for parse in (twice,
                      lambda x: verify_orthogonality_sum(1, 1, 1, 1, 0, x),
                      lambda x: verify_recoupling_sum(x, 1, 1, 1, 0, 0)):
            with pytest.raises(error) as err:
                parse(bad)
            assert err.type is error and str(err.value) == message

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_floats_are_not_half_integers(self, bad):
        for parse in (twice, lambda x: six_j(x, 1, 1, 1, 1, 1)):
            with pytest.raises(ValueError) as err:
                parse(bad)
            assert err.type is ValueError and str(err.value) == f"{bad} is not a half-integer"


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
        assert ExactRadical.sqrt(r).radicand == r

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
        with pytest.raises(ZeroDivisionError):
            a / ExactRadical.zero()

    def test_ratio_of_zero_rational_and_irrational_quotients(self):
        b = -ExactRadical.sqrt(Fraction(2, 3))
        zero = ExactRadical.zero().ratio(b)
        assert zero == 0 and isinstance(zero, Fraction)
        assert ExactRadical.sqrt(Fraction(8, 27)).ratio(b) == Fraction(-2, 3)
        assert (-ExactRadical.sqrt(Fraction(8, 27))).ratio(b) == Fraction(2, 3)
        assert ExactRadical.sqrt(Fraction(1, 3)).ratio(b) is None  # sqrt(1/2)
        assert ExactRadical.sqrt(Fraction(4, 9)).ratio(b) is None  # sqrt(2/3), square numerator
        with pytest.raises(ZeroDivisionError):
            ExactRadical.zero().ratio(ExactRadical.zero())

    @pytest.mark.parametrize("radicand, sign, want", [
        (Fraction(0), 0, Fraction(0)),
        (Fraction(9, 4), 1, Fraction(3, 2)),
        (Fraction(9, 4), -1, Fraction(-3, 2)),
        (Fraction(49), 1, Fraction(7)),
        (Fraction(2), 1, None),
        (Fraction(4, 3), -1, None),  # square numerator only
        (Fraction(2, 9), 1, None),  # square denominator only
    ])
    def test_as_rational(self, radicand, sign, want):
        got = ExactRadical(sign, radicand).as_rational()
        assert got == want and type(got) is type(want)

    def test_sqrt_rejects_non_rationals_and_negatives(self):
        with pytest.raises(TypeError):
            ExactRadical.sqrt(1.5)
        with pytest.raises(ValueError):
            ExactRadical.sqrt(-1)


R = -ExactRadical.sqrt(Fraction(2, 3))
Q = ExactRadical.from_rational(Fraction(-3, 4))


class TestRadicalOperandsOnly:
    """Operators take ExactRadical operands; rationals go through scale or from_rational."""

    @pytest.mark.parametrize("expr", [
        lambda: R * 2,
        lambda: 2 * R,
        lambda: R / 2,
        lambda: Q + 1,
        lambda: 1 + Q,
        lambda: Q - 1,
        lambda: 1 - Q,
        lambda: abs(R),
        lambda: Fraction(1, 2) * R,
    ], ids=["r * 2", "2 * r", "r / 2", "r + 1", "1 + r", "r - 1", "1 - r", "abs(r)",
            "Fraction(1, 2) * r"])
    def test_non_radical_operand_raises_type_error(self, expr):
        with pytest.raises(TypeError):
            expr()

    def test_scale_and_from_rational_give_the_mixed_operator_values(self):
        # the values r * 2, r / 2, Fraction(1, 2) * r, abs(r), q + 1, q - 1 and
        # 1 - q had while those operators coerced rationals
        one = ExactRadical.from_rational(1)
        assert R.scale(2) == ExactRadical(-1, Fraction(8, 3))
        assert R.scale(Fraction(1, 2)) == ExactRadical(-1, Fraction(1, 6))
        assert ExactRadical.sqrt(R.radicand) == ExactRadical(1, Fraction(2, 3))
        assert Q + one == ExactRadical.from_rational(Fraction(1, 4))
        assert Q - one == ExactRadical.from_rational(Fraction(-7, 4))
        assert one - Q == ExactRadical.from_rational(Fraction(7, 4))
        assert str(R.scale(2)) == "-sqrt(8/3)" and str(one - Q) == "7/4"


def fold(terms):
    """The left fold of ``+`` over c * f1 * f2 * ..., each term built with ``*`` and scale."""
    total = ExactRadical.zero()
    for c, *factors in terms:
        product = ExactRadical.one()
        for f in factors:
            product = product * f
        total = total + product.scale(c)
    return total


def ratio_fold(terms):
    """The same fold by the ratio rule: x + y = y * (1 + x/y) when x/y is rational."""
    total = ExactRadical.zero()
    for c, *factors in terms:
        term = ExactRadical.one()
        for f in factors:
            term = term * f
        term = term.scale(c)
        if not term.is_zero:
            total = term if total.is_zero else term.scale(1 + total.ratio(term))
    return total


small_rationals = st.fractions(min_value=Fraction(-20), max_value=Fraction(20),
                               max_denominator=12)
compatible_terms = st.lists(st.tuples(
    st.integers(-6, 6),                        # coefficient, zero included
    small_rationals,                           # rational multiple of the base
    st.one_of(st.none(), st.integers(1, 30)),  # None: one factor; k: base*sqrt(k) and sqrt(k)
), max_size=8)


def build_terms(base, raw):
    terms = []
    for c, q, k in raw:
        if k is None:
            terms.append((c, base.scale(q)))
        else:
            terms.append((c, base.scale(q) * ExactRadical.sqrt(k), ExactRadical.sqrt(k)))
    return terms


class TestExactSum:
    @given(base=nonneg_rationals, raw=compatible_terms)
    @settings(max_examples=200)
    def test_equals_left_fold(self, base, raw):
        terms = build_terms(ExactRadical.sqrt(base), raw)
        got = exact_sum(terms)
        assert got == fold(terms) == ratio_fold(terms)
        assert math.isclose(float(got), sum(c * math.prod(map(float, fs)) for c, *fs in terms),
                            rel_tol=1e-9, abs_tol=1e-9)

    @given(base=nonneg_rationals, raw=compatible_terms)
    @settings(max_examples=50)
    def test_exact_cancellation_to_zero(self, base, raw):
        terms = build_terms(ExactRadical.sqrt(base), raw)
        assert exact_sum(terms + [(-c, *fs) for c, *fs in terms]) == ExactRadical.zero()

    def test_edge_terms(self):
        r = -ExactRadical.sqrt(Fraction(8, 3))
        zero = ExactRadical.zero()
        assert exact_sum([]) == zero
        assert exact_sum([(1, r)]) == r
        assert exact_sum([(-3, r)]) == r.scale(-3)
        assert exact_sum([(0, r), (2, zero), (5, r, zero)]) == zero
        assert exact_sum([(0, ExactRadical.sqrt(2)), (1, r)]) == r  # a zero term sets no radicand
        assert exact_sum([(2, r), (-1, r.scale(2))]) == zero
        assert exact_sum([(1, r, r), (-3, r, ExactRadical.sqrt(6))]) == ExactRadical.from_rational(
            Fraction(8, 3) + 12)  # r * r = 8/3 and r * sqrt(6) = -4
        # an exactly cancelled partial sum takes the next radicand, as the fold does
        terms = [(1, ExactRadical.sqrt(2)), (-1, ExactRadical.sqrt(2)), (1, ExactRadical.sqrt(3))]
        assert exact_sum(terms) == fold(terms) == ExactRadical.sqrt(3)

    def test_incompatible_radicands_raise_the_fold_message(self):
        two, three = ExactRadical.sqrt(2), ExactRadical.sqrt(3)
        for add in (lambda: exact_sum([(1, two), (1, three)]), lambda: two + three):
            with pytest.raises(ValueError, match=r"^cannot add incompatible radicals sqrt\(2\) "
                                                 r"and sqrt\(3\) exactly$"):
                add()
        terms = [(1, ExactRadical.sqrt(2)), (1, ExactRadical.sqrt(8)), (-2, ExactRadical.sqrt(3))]
        with pytest.raises(ValueError) as from_fold:
            fold(terms)
        with pytest.raises(ValueError) as from_sum:
            exact_sum(terms)
        assert str(from_sum.value) == str(from_fold.value) == (
            "cannot add incompatible radicals sqrt(18) and -sqrt(12) exactly")

    @pytest.mark.parametrize("seed", range(25))
    def test_seeded_factor_counts_equal_the_left_fold(self, seed):
        # terms of no factor, one factor and three factors, with zero coefficients
        # and zero factors among them; a term of no factor is the rational c, so
        # it is drawn only when the base is rational and every sum stays in one class
        rng = random.Random(seed)
        base = ExactRadical.sqrt(rng.choice((Fraction(1), Fraction(2), Fraction(3, 5))))
        kinds = (0, 1, 3) if base.as_rational() is not None else (1, 3)
        terms = []
        for _ in range(rng.randint(0, 10)):
            c, kind = rng.randint(-6, 6), rng.choice(kinds)
            q = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
            if kind == 0:
                terms.append((c,))
            elif kind == 1:
                terms.append((c, base.scale(q)))
            else:
                k, m = ExactRadical.sqrt(rng.randint(1, 30)), ExactRadical.sqrt(rng.randint(1, 30))
                factors = [base.scale(q) * k * m, k, m]
                if rng.random() < 0.2:
                    factors[rng.randrange(3)] = ExactRadical.zero()
                terms.append((c, *factors))
        assert exact_sum(terms) == fold(terms) == ratio_fold(terms)

    @pytest.mark.parametrize("terms, message", [
        ([(2,), (1, ExactRadical.sqrt(2))], "2 and sqrt(2)"),
        ([(1, ExactRadical.sqrt(3), ExactRadical.sqrt(5), ExactRadical.sqrt(7)),
          (-2, ExactRadical.sqrt(105)), (1, ExactRadical.sqrt(6))], "-sqrt(105) and sqrt(6)"),
        ([(3, ExactRadical.sqrt(Fraction(2, 3))), (0, ExactRadical.sqrt(5)),
          (1, ExactRadical.zero(), ExactRadical.sqrt(7)),
          (-1, ExactRadical.sqrt(Fraction(1, 5)), ExactRadical.sqrt(Fraction(1, 3)),
           ExactRadical.sqrt(2))], "sqrt(6) and -sqrt(2/15)"),
        ([(1, ExactRadical.sqrt(2)), (-1, ExactRadical.sqrt(2)), (4,),
          (1, -ExactRadical.sqrt(Fraction(9, 8)), ExactRadical.sqrt(Fraction(1, 2)),
           ExactRadical.sqrt(3))], "4 and -sqrt(27/16)"),
    ])
    def test_incompatible_terms_of_any_factor_count_keep_their_message(self, terms, message):
        # the partial sum and the offending term, each as one radical
        with pytest.raises(ValueError) as err:
            exact_sum(terms)
        assert str(err.value) == f"cannot add incompatible radicals {message} exactly"
