import json
import random
from fractions import Fraction

import pytest

from ospdim.series import DEFAULT_ORDER, TruncatedSeries, geometric, polynomial


def random_series(rng, order):
    return TruncatedSeries(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)], order
    )


class TestConstruction:
    def test_default_order(self):
        assert TruncatedSeries([1, 2, 3]).order == 2
        assert TruncatedSeries.zero().order == DEFAULT_ORDER

    def test_padding_and_truncation(self):
        s = TruncatedSeries([1, 2], 4)
        assert s.coeffs == (1, 2, 0, 0, 0)
        t = TruncatedSeries([1, 2, 3, 4], 1)
        assert t.coeffs == (1, 2)

    def test_monomial(self):
        m = TruncatedSeries.monomial(3, 7, 5)
        assert m.coeffs == (0, 0, 0, 7, 0, 0)
        beyond = TruncatedSeries.monomial(9, 1, 4)
        assert beyond == TruncatedSeries.zero(4)
        with pytest.raises(ValueError):
            TruncatedSeries.monomial(-1)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            TruncatedSeries([1], -1)

    def test_coefficient_accessor(self):
        s = TruncatedSeries([5, 6, 7])
        assert s.coefficient(1) == 6
        with pytest.raises(IndexError):
            s.coefficient(3)

    def test_coefficients_are_fractions(self):
        s = TruncatedSeries([1, 2])
        assert all(isinstance(c, Fraction) for c in s.coeffs)


class TestArithmetic:
    def test_add_sub_neg(self):
        a = polynomial([1, 2, 3], 4)
        b = polynomial([0, 1, 1], 4)
        assert (a + b).coeffs == (1, 3, 4, 0, 0)
        assert (a - b).coeffs == (1, 1, 2, 0, 0)
        assert (-a).coeffs == (-1, -2, -3, 0, 0)

    def test_scalar_multiplication(self):
        a = polynomial([1, 2], 3)
        assert (a * 3).coeffs == (3, 6, 0, 0)
        assert (3 * a) == (a * 3)
        assert (a * Fraction(1, 2)).coeffs == (Fraction(1, 2), 1, 0, 0)

    def test_cauchy_product(self):
        sq = polynomial([1, 1], 6) ** 2
        assert sq.coeffs[:3] == (1, 2, 1)
        geo = geometric(8)
        assert (polynomial([1, -1], 8) * geo) == TruncatedSeries.one(8)

    def test_mixed_order_truncates_to_smaller(self):
        a = polynomial([1, 1, 1, 1], 3)
        b = polynomial([1, 1], 1)
        assert (a + b).order == 1
        assert (a * b).order == 1
        assert (a - b).order == 1
        assert (a / b).order == 1

    def test_division_golden(self):
        for p in range(5):
            num = TruncatedSeries.one(10) - TruncatedSeries.monomial(p + 1, 1, 10)
            q = num / polynomial([1, -1], 10)
            want = TruncatedSeries([1] * (p + 1), 10)
            assert q == want

    def test_division_round_trip(self):
        rng = random.Random(11)
        for _ in range(100):
            a = random_series(rng, 16)
            b = random_series(rng, 16)
            if b.coeffs[0] == 0:
                continue
            assert (a * b) / b == a
            assert (a / b) * b == a

    def test_division_by_non_unit(self):
        with pytest.raises(ZeroDivisionError):
            polynomial([1, 1], 4) / polynomial([0, 1], 4)
        with pytest.raises(ZeroDivisionError):
            polynomial([1], 4) / 0

    def test_scalar_division(self):
        assert (polynomial([2, 4], 3) / 2).coeffs == (1, 2, 0, 0)

    def test_pow(self):
        assert polynomial([1, 1], 6) ** 5 == polynomial([1, 5, 10, 10, 5, 1], 6)
        assert polynomial([1, 7], 4) ** 0 == TruncatedSeries.one(4)
        with pytest.raises(ValueError):
            polynomial([1, 1], 4) ** -1

    def test_ring_axioms_random(self):
        rng = random.Random(20260819)
        one = TruncatedSeries.one(12)
        for _ in range(200):
            a = random_series(rng, 12)
            b = random_series(rng, 12)
            c = random_series(rng, 12)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * one == a
            assert a + TruncatedSeries.zero(12) == a


class TestSubstitutionAndEvaluation:
    def test_substitute_neg_t(self):
        s = polynomial([1, 2, 3, 4], 5)
        assert s.substitute_neg_t().coeffs == (1, -2, 3, -4, 0, 0)
        assert s.substitute_neg_t().substitute_neg_t() == s

    def test_substitution_is_ring_map(self):
        rng = random.Random(5)
        for _ in range(100):
            a = random_series(rng, 10)
            b = random_series(rng, 10)
            assert (a * b).substitute_neg_t() == a.substitute_neg_t() * b.substitute_neg_t()
            assert (a + b).substitute_neg_t() == a.substitute_neg_t() + b.substitute_neg_t()

    def test_eval_at_one_polynomial(self):
        value, is_poly = polynomial([1, 3, 3, 1], 8).eval_at_one()
        assert value == 8 and is_poly

    def test_eval_at_one_full_window(self):
        value, is_poly = geometric(6).eval_at_one()
        assert value == 7 and not is_poly

    def test_eval_at_one_zero_series(self):
        value, is_poly = TruncatedSeries.zero(5).eval_at_one()
        assert value == 0 and is_poly


class TestComparison:
    def test_equality_through_common_order(self):
        a = polynomial([1, 2, 3], 2)
        b = polynomial([1, 2, 3, 9], 3)
        assert a == b  # only t^0..t^2 compared
        assert polynomial([1, 2], 2) != polynomial([1, 3], 2)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(TruncatedSeries.one(2))

    def test_first_divergence(self):
        a = polynomial([1, 2, 3, 4], 3)
        b = polynomial([1, 2, 5, 4], 3)
        assert a.first_divergence(b) == 2
        assert a.first_divergence(a) is None
        short = polynomial([1, 2], 1)
        assert a.first_divergence(short) is None  # common window agrees


class TestRendering:
    def test_golden_strings(self):
        assert str(TruncatedSeries.zero(4)) == "0"
        assert str(TruncatedSeries.one(4)) == "1"
        assert str(polynomial([0, -1], 3)) == "-t"
        assert str(polynomial([1, -3, 6], 4)) == "1 - 3t + 6t^2"
        assert str(polynomial([1, 3, 9, 9, 9, 3, 1], 8)) == "1 + 3t + 9t^2 + 9t^3 + 9t^4 + 3t^5 + t^6"
        assert str(polynomial([2, -2, 2], 2)) == "2 - 2t + 2t^2"

    def test_fractional_coefficients(self):
        s = TruncatedSeries([Fraction(1, 2), 0, Fraction(-9, 2)], 2)
        assert str(s) == "1/2 - 9/2t^2"


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = random.Random(99)
        for _ in range(50):
            s = random_series(rng, 9)
            blob = json.dumps(s.to_json_dict())
            back = TruncatedSeries.from_json_dict(json.loads(blob))
            assert back.order == s.order
            assert back.coeffs == s.coeffs

    def test_schema_shape(self):
        d = polynomial([1, Fraction(1, 3)], 2).to_json_dict()
        assert d == {"order": 2, "coeffs": ["1", "1/3", "0"]}

    def test_from_json_rejects_malformed(self):
        for bad in (
            {"order": 5, "coeffs": ["1"]},
            {"order": 1, "coeffs": ["1", "2", "3"]},
            {"order": -1, "coeffs": []},
        ):
            with pytest.raises(ValueError):
                TruncatedSeries.from_json_dict(bad)
