"""Property-based tests of the series core, checked against a plain
Fraction reference for products and quotients."""

from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ospdim.series import TruncatedSeries  # noqa: E402

MAX_ORDER = 12
CHECKS = settings(max_examples=60, deadline=None)

scalars = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
)
# zeros are drawn often, so sparse series and integral ones both occur
coefficients = st.one_of(st.just(0), scalars)


@st.composite
def series(draw, order=None):
    if order is None:
        order = draw(st.integers(0, MAX_ORDER))
    cs = draw(st.lists(coefficients, min_size=order + 1, max_size=order + 1))
    return TruncatedSeries(cs, order)


@st.composite
def same_order(draw, count):
    order = draw(st.integers(0, MAX_ORDER))
    return [draw(series(order)) for _ in range(count)]


@st.composite
def divisors(draw, order):
    """Series with constant term 3, -2 or 1/2, or the sparse 1 - t^k."""
    if draw(st.booleans()):
        k = draw(st.integers(1, order + 2))
        return TruncatedSeries.one(order) - TruncatedSeries.monomial(k, 1, order)
    b0 = draw(st.sampled_from([3, -2, Fraction(1, 2)]))
    rest = draw(st.lists(coefficients, min_size=order, max_size=order))
    return TruncatedSeries([b0, *rest], order)


def reference_product(a, b):
    n = min(a.order, b.order)
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return out


def reference_quotient(a, b):
    n = min(a.order, b.order)
    out = []
    for k in range(n + 1):
        acc = a.coeffs[k] - sum(b.coeffs[j] * out[k - j] for j in range(1, k + 1))
        out.append(acc / b.coeffs[0])
    return out


def lowest_terms(s):
    return s._den > 0 and gcd(s._den, *s._nums) == 1


@CHECKS
@given(same_order(3))
def test_ring_laws(abc):
    a, b, c = abc
    zero, one = TruncatedSeries.zero(a.order), TruncatedSeries.one(a.order)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + zero == a
    assert a + (-a) == zero
    assert a - b == a + (-b)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * one == a
    assert a * (b + c) == a * b + a * c


@CHECKS
@given(same_order(2))
def test_product_matches_reference(ab):
    a, b = ab
    prod = a * b
    assert list(prod.coeffs) == reference_product(a, b)
    assert lowest_terms(prod)


@CHECKS
@given(st.data())
def test_division_inverts_multiplication(data):
    order = data.draw(st.integers(0, MAX_ORDER))
    a = data.draw(series(order))
    b = data.draw(divisors(order))
    quot = a / b
    assert list(quot.coeffs) == reference_quotient(a, b)
    assert lowest_terms(quot)
    assert (a * b) / b == a
    assert (a / b) * b == a


@CHECKS
@given(series(), series(), scalars)
def test_mixed_orders_truncate_to_smaller(a, b, c):
    n = min(a.order, b.order)
    for got, want in (
        (a + b, a.pad(n) + b.pad(n)),
        (a - b, a.pad(n) - b.pad(n)),
        (a * b, a.pad(n) * b.pad(n)),
    ):
        assert got.order == n
        assert got.coeffs == want.coeffs
    one = TruncatedSeries.one(b.order)
    assert (a / (one + b * TruncatedSeries.monomial(1, c, b.order))).order == n


@CHECKS
@given(st.data())
def test_substitute_neg_t_is_ring_homomorphism(data):
    order = data.draw(st.integers(0, MAX_ORDER))
    a, b = data.draw(series(order)), data.draw(series(order))
    d = data.draw(divisors(order))

    def neg(s):
        return s.substitute_neg_t()

    assert neg(a + b) == neg(a) + neg(b)
    assert neg(a * b) == neg(a) * neg(b)
    assert neg(a / d) == neg(a) / neg(d)
    assert neg(TruncatedSeries.one(order)) == TruncatedSeries.one(order)
    assert neg(neg(a)).coeffs == a.coeffs


@CHECKS
@given(st.lists(coefficients, max_size=MAX_ORDER + 3), st.integers(0, MAX_ORDER))
def test_coeffs_round_trip(cs, order):
    s = TruncatedSeries(cs, order)
    assert lowest_terms(s)
    want = [Fraction(c) for c in cs[: order + 1]]
    want += [Fraction(0)] * (order + 1 - len(want))
    assert list(s.coeffs) == want
    back = TruncatedSeries(s.coeffs, s.order)
    assert back.coeffs == s.coeffs
    assert (back._nums, back._den) == (s._nums, s._den)


@CHECKS
@given(series())
def test_integral_series_have_denominator_one(s):
    integral = all(c.denominator == 1 for c in s.coeffs)
    assert (s._den == 1) == integral
