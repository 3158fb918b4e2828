"""Property-based tests of the series core, checked against a plain
Fraction reference for products and quotients, against long division for
the running sums of `over_one_minus`, and against the public Fraction
constructor for the Fractions the series reads back."""

from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ospdim.series import TruncatedSeries, _fraction, polynomial  # noqa: E402
from test_series import reference_str  # noqa: E402

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
    # the same coefficients cut to order n
    a_n, b_n = TruncatedSeries(a.coeffs, n), TruncatedSeries(b.coeffs, n)
    for got, want in (
        (a + b, a_n + b_n),
        (a - b, a_n - b_n),
        (a * b, a_n * b_n),
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


@CHECKS
@given(st.data())
def test_over_one_minus_is_long_division_by_the_power(data):
    order = data.draw(st.integers(0, MAX_ORDER))
    s = data.draw(series(order))
    j = data.draw(st.integers(1, order + 2))
    # times below a residue class's length takes running sums, and times at
    # least that length one product with the binomial series
    times = data.draw(st.one_of(st.integers(0, 8), st.integers(10**5, 10**6)))
    got = s.over_one_minus(j, times)
    want = s / polynomial([1] + [0] * (j - 1) + [-1], order) ** times
    assert got.order == order
    assert got.coeffs == want.coeffs
    assert got._den == want._den
    assert lowest_terms(got)


def test_over_one_minus_takes_many_factors_without_recursing():
    # 1/(1 - t^2)^e = 1 + e t^2 + ...; a chain of e lazy running sums
    # would recurse e deep in C and overflow the stack
    s = TruncatedSeries([1], 2).over_one_minus(2, 200000)
    assert s == TruncatedSeries([1, 0, 200000], 2)
    assert TruncatedSeries([1], 2).over_one_minus(1, 200000) == TruncatedSeries(
        [1, 200000, 200000 * 200001 // 2], 2
    )
    # osp(1|2n) at n = 100000 divides by (1 - t^2)^4999950000: one product
    # per residue class, where as many running sums would take hours
    e = 100000 * 99999 // 2
    s = TruncatedSeries([1, -2, 3, 0, 5], 4)
    assert s.over_one_minus(2, e) == s / polynomial([1, 0, -1], 4) ** e
    assert s.over_one_minus(1, e) == s / polynomial([1, -1], 4) ** e


@pytest.mark.parametrize("j", [0, -1, 1.0, True, "1", None])
def test_over_one_minus_refuses_bad_j(j):
    with pytest.raises(ValueError):
        TruncatedSeries([1, 2, 3]).over_one_minus(j)


@pytest.mark.parametrize("times", [-1, 1.0, True, "1", None])
def test_over_one_minus_refuses_bad_times(times):
    with pytest.raises(ValueError):
        TruncatedSeries([1, 2, 3]).over_one_minus(1, times)


# -- the Fractions read back: built from the stored pair, as Fraction(x, den)

# numerators past 2^64 too, so the gcd and the hash meet big ints
numerators = st.one_of(st.just(0), st.integers(-30, 30), st.integers(-(2**200), 2**200))
denominators = st.one_of(st.just(1), st.integers(1, 12), st.integers(1, 2**100))


@st.composite
def boundary_series(draw):
    """A series given as Fractions x/den over one drawn denominator, integral
    at den = 1, and the Fractions it was given."""
    order = draw(st.integers(0, MAX_ORDER))
    den = draw(denominators)
    nums = draw(st.lists(numerators, min_size=order + 1, max_size=order + 1))
    given = [Fraction(x, den) for x in nums]
    return TruncatedSeries(given, order), given


def assert_same_fraction(got, want):
    assert type(got) is Fraction and type(want) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got == want and hash(got) == hash(want)
    assert str(got) == str(want) and repr(got) == repr(want)
    for other in (want, 2, Fraction(-1, 3)):
        assert got + other == want + other
        assert got - other == want - other
        assert got * other == want * other
        assert (got < other) == (want < other)
        if other:
            assert got / other == want / other
    assert -got == -want and abs(got) == abs(want)
    assert type(got + 1) is Fraction and type(got * got) is Fraction


@CHECKS
@given(boundary_series())
def test_coeffs_are_the_fractions_the_constructor_builds(drawn):
    s, given = drawn
    assert lowest_terms(s)
    for k, (got, want) in enumerate(zip(s.coeffs, given)):
        assert_same_fraction(got, Fraction(s._nums[k], s._den))
        assert_same_fraction(got, want)
        assert_same_fraction(s.coefficient(k), want)
    assert len(s.coeffs) == len(given)


@CHECKS
@given(boundary_series())
def test_eval_at_one_is_the_fraction_of_the_sum(drawn):
    s, given = drawn
    value, is_poly = s.eval_at_one()
    assert_same_fraction(value, Fraction(sum(s._nums), s._den))
    assert_same_fraction(value, sum(given, Fraction(0)))
    assert is_poly == (given[-1] == 0)


@CHECKS
@given(boundary_series())
def test_text_is_that_of_the_given_fractions(drawn):
    s, given = drawn
    # an integral series renders its int numerators, a rational one its coeffs
    assert str(s) == reference_str(given)
    assert repr(s) == f"TruncatedSeries({[str(c) for c in given]}, order={s.order})"


@CHECKS
@given(numerators, denominators)
def test_fraction_helper_equals_the_constructor_on_lowest_terms(x, den):
    want = Fraction(x, den)
    assert_same_fraction(_fraction(want.numerator, want.denominator), want)


def test_fraction_still_keeps_its_value_in_the_two_slots_the_helper_fills():
    # `_fraction` fills _numerator and _denominator and nothing else; a
    # Python whose Fraction keeps other state, or other names, fails here
    slots = [name for cls in Fraction.__mro__ for name in vars(cls).get("__slots__", ())]
    assert sorted(slots) == ["_denominator", "_numerator"]
    assert not hasattr(Fraction(1), "__dict__")
    f = Fraction(6, -4)
    assert (f._numerator, f._denominator) == (-3, 2)
    assert_same_fraction(_fraction(-3, 2), f)
