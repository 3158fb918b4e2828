import json
import random
from fractions import Fraction

import pytest

from ospdim.series import DEFAULT_ORDER, TruncatedSeries, polynomial


def random_series(rng, order):
    return TruncatedSeries(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)], order
    )


def reference_str(coeffs):
    """The rendering of a coefficient list as the series class first wrote
    it: each term carries its own sign, which the join turns into " - "."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            body = str(c)
        else:
            mono = "t" if k == 1 else f"t^{k}"
            if c == 1:
                body = mono
            elif c == -1:
                body = "-" + mono
            else:
                body = f"{c}{mono}"
        terms.append(body)
    if not terms:
        return "0"
    out = terms[0]
    for term in terms[1:]:
        out += " - " + term[1:] if term.startswith("-") else " + " + term
    return out


class TestConstruction:
    def test_default_order(self):
        assert TruncatedSeries([1, 2, 3]).order == 2
        assert TruncatedSeries.zero().order == DEFAULT_ORDER

    def test_rejects_a_bool_coefficient(self):
        for cs in ([True, 2], [1, False], [Fraction(1, 2), True]):
            with pytest.raises(ValueError, match="coefficients must be ints or Fractions"):
                TruncatedSeries(cs, 1)

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
        for bad in (-1, 2.5, True):
            with pytest.raises(ValueError, match=f"exponent must be an int >= 0, got {bad}"):
                TruncatedSeries.monomial(bad, 1, 4)

    def test_rejects_negative_order(self):
        for bad in (-1, 2.5, True):
            with pytest.raises(ValueError, match=f"order must be an int >= 0, got {bad}"):
                TruncatedSeries([1], bad)

    def test_rejects_inexact_coefficients(self):
        # a float would be read as its binary value, not the decimal written
        for coeffs in ([0.1], [1, Fraction(1, 2), 0.5], ["1/2"]):
            with pytest.raises(ValueError, match="ints or Fractions"):
                polynomial(coeffs, 2)
        assert polynomial([1, Fraction(1, 2)], 2).coeffs == (1, Fraction(1, 2), 0)

    def test_coefficient_accessor(self):
        s = TruncatedSeries([5, 6, 7])
        assert s.coefficient(1) == 6
        with pytest.raises(IndexError):
            s.coefficient(3)

    @pytest.mark.parametrize("k", [True, False, 1.0, "1", None, Fraction(1)])
    def test_coefficient_refuses_an_exponent_that_is_not_an_int(self, k):
        # as monomial does: True once read t^1 and 1.0 raised a bare TypeError
        with pytest.raises(ValueError, match="exponent must be an int"):
            TruncatedSeries([5, 6, 7]).coefficient(k)

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
        geo = TruncatedSeries([1] * 9, 8)
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
        for bad in (2.5, True):
            with pytest.raises(ValueError, match=f"power must be an int, got {bad}"):
                polynomial([1, 1], 4) ** bad

    def test_rejects_a_float_or_bool_scalar(self):
        s = polynomial([1, 1], 4)
        for bad in (2.5, True, False):
            for op in (lambda: s * bad, lambda: bad * s, lambda: s / bad):
                with pytest.raises(TypeError):
                    op()

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
        value, is_poly = TruncatedSeries([1] * 7, 6).eval_at_one()
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

    @pytest.mark.parametrize("other", [3, Fraction(1, 2), None, [1, 2]])
    def test_first_divergence_refuses_what_is_not_a_series(self, other):
        with pytest.raises(TypeError, match=f"needs a TruncatedSeries, got {type(other).__name__}$"):
            polynomial([1, 2], 1).first_divergence(other)

    def test_first_divergence_matches_a_fraction_oracle(self):
        rng = random.Random(2016)
        diverged = agreed = 0
        for _ in range(400):
            a = random_series(rng, rng.randint(0, 10))
            order = rng.randint(0, 10)
            # b copies a's common window, then a tail of its own, so the two
            # often agree while their denominators differ
            cs = list(a.coeffs[: order + 1]) + [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)
            ]
            if rng.random() < 0.5:
                k = rng.randrange(min(a.order, order) + 1)
                cs[k] += Fraction(1, rng.randint(1, 9))
            b = TruncatedSeries(cs, order)
            expected = next(
                (k for k, (x, y) in enumerate(zip(a.coeffs, b.coeffs)) if x != y), None
            )
            assert a.first_divergence(b) == expected
            assert b.first_divergence(a) == expected
            assert (a == b) == (expected is None)
            diverged += expected is not None
            agreed += expected is None
        assert diverged > 100 and agreed > 100


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

    def test_matches_the_reference_renderer(self):
        cases = [
            [],
            [0, 0, 0],
            [1],
            [-1],
            [1, 1, -1, 0, 1, -1],
            [-1, -1, 1],
            [0, -1, 0, 1],
            [0, 0, 0, -1],
            [Fraction(-1, 2), Fraction(1, 3), Fraction(-5, 3), 0, Fraction(7, 2)],
            [0, Fraction(-9, 2), -12, 12],
        ]
        rng = random.Random(7)
        for _ in range(200):
            cs = []
            for _ in range(rng.randint(1, 8)):
                rational = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                cs.append(rng.choice([0, 1, -1, rng.randint(-9, 9), rational]))
            cases.append(cs)
        for cs in cases:
            s = TruncatedSeries(cs, max(len(cs) - 1, 0))
            assert str(s) == reference_str(s.coeffs)


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

    def test_json_is_the_fraction_text_of_each_coefficient(self):
        # an integral series writes its numerators without building Fractions
        rng = random.Random(7)
        cases = [random_series(rng, 9) for _ in range(40)]
        cases += [TruncatedSeries([3, -12, 0, 10**30, -1], 4), TruncatedSeries.zero(0)]
        assert any(s.coeffs and all(c.denominator == 1 for c in s.coeffs) for s in cases)
        assert any(c.denominator != 1 for s in cases for c in s.coeffs)
        for s in cases:
            want = {"order": s.order, "coeffs": [str(c) for c in s.coeffs]}
            assert json.dumps(s.to_json_dict()) == json.dumps(want)

    def test_from_json_rejects_malformed(self):
        for bad in (
            {"order": 5, "coeffs": ["1"]},
            {"order": 1, "coeffs": ["1", "2", "3"]},
            {"order": -1, "coeffs": []},
            # a string would load character by character, as 1 + 2t + 3t^2
            {"order": 2, "coeffs": "123"},
            # Fraction("1/0") raises ZeroDivisionError
            {"order": 2, "coeffs": ["1/0", "0", "0"]},
        ):
            with pytest.raises(ValueError):
                TruncatedSeries.from_json_dict(bad)
        # a payload that is not a mapping, or lacks a key, is named as such
        for bad, what in (
            ([], "must be a mapping"),
            (None, "must be a mapping"),
            ({}, "needs order and coeffs"),
            ({"coeffs": ["1"]}, "needs order,"),
            ({"order": 0}, "needs coeffs,"),
        ):
            with pytest.raises(ValueError, match=f"a series payload {what}"):
                TruncatedSeries.from_json_dict(bad)

    def test_from_json_refuses_what_the_constructor_refuses(self):
        # the payload's coefficients are strings; a float would load as its
        # binary value and a bool as 0 or 1, so both are refused, as is an
        # order that is not an int
        for order in (1.9, True, "2"):
            with pytest.raises(ValueError, match="order must be an int"):
                TruncatedSeries.from_json_dict({"order": order, "coeffs": ["1", "2"]})
        for coeff in (0.1, True, None):
            with pytest.raises(ValueError, match="coefficients must be ints or Fractions"):
                TruncatedSeries.from_json_dict({"order": 1, "coeffs": ["1", coeff]})
