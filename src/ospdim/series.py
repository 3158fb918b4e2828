"""Truncated power series in one variable t with exact rational coefficients.

A series of order N has the N+1 coefficients of t^0 .. t^N.  They are stored
as a tuple of Python int numerators over one common positive denominator,
kept in lowest terms: gcd(den, *nums) == 1, so an integral series has
den == 1 and its arithmetic never leaves the integers.  Fractions appear only
at the boundary (`coeffs`, `coefficient`, `eval_at_one`, rendering and JSON);
the arithmetic works on the numerators.  Products loop over the nonzero terms
only, and division is one integer long division that visits only the
divisor's nonzero terms.

Arithmetic between series of different orders truncates to the smaller order,
which is recorded in the result; nothing is ever rounded.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

DEFAULT_ORDER = 16

Scalar = Union[int, Fraction]


def _make(nums: list[int], den: int) -> "TruncatedSeries":
    """A series from numerators over a nonzero denominator, reduced to
    lowest terms with a positive denominator."""
    if den != 1:
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
    out = object.__new__(TruncatedSeries)
    out._nums = tuple(nums)
    out._den = den
    return out


class TruncatedSeries:
    # _coeffs caches the Fraction view, which callers may index term by term
    __slots__ = ("_nums", "_den", "_coeffs")

    def __init__(self, coeffs: Iterable[Scalar] = (), order: int | None = None):
        cs = list(coeffs)
        if order is None:
            order = max(len(cs) - 1, 0)
        if order < 0:
            raise ValueError("order must be non-negative")
        del cs[order + 1 :]
        den = 1
        if not all(type(c) is int for c in cs):
            fs = [Fraction(c) for c in cs]
            den = lcm(*(f.denominator for f in fs))
            cs = [f.numerator * (den // f.denominator) for f in fs]
        cs.extend([0] * (order + 1 - len(cs)))
        # with den the lcm of reduced denominators the numerators are coprime to it
        self._nums = tuple(cs)
        self._den = den

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        return cls((), order)

    @classmethod
    def one(cls, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        return cls((1,), order)

    @classmethod
    def monomial(cls, k: int, coeff: Scalar = 1, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        if k < 0:
            raise ValueError("exponent must be non-negative")
        cs = [0] * (order + 1)
        if k <= order:
            cs[k] = coeff
        return cls(cs, order)

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        try:
            return self._coeffs
        except AttributeError:
            den = self._den
            if den == 1:
                self._coeffs = tuple(map(Fraction, self._nums))
            else:
                self._coeffs = tuple(Fraction(x, den) for x in self._nums)
            return self._coeffs

    def coefficient(self, k: int) -> Fraction:
        if k < 0 or k > self.order:
            raise IndexError(f"t^{k} lies outside the stored window")
        return self.coeffs[k]

    # -- ring operations ---------------------------------------------------

    def _aligned(self, other: "TruncatedSeries"):
        """Both numerator tuples, cut to the common order and brought over
        the lcm of the two denominators, and that lcm."""
        n = min(self.order, other.order) + 1
        a, b = self._nums[:n], other._nums[:n]
        da, db = self._den, other._den
        if da == db:
            return a, b, da
        den = lcm(da, db)
        fa, fb = den // da, den // db
        return [x * fa for x in a], [y * fb for y in b], den

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        a, b, den = self._aligned(other)
        return _make([x + y for x, y in zip(a, b)], den)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        a, b, den = self._aligned(other)
        return _make([x - y for x, y in zip(a, b)], den)

    def __neg__(self) -> "TruncatedSeries":
        return _make([-x for x in self._nums], self._den)

    def __mul__(self, other: Union["TruncatedSeries", Scalar]) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            num = c.numerator
            return _make([x * num for x in self._nums], self._den * c.denominator)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        out = [0] * (n + 1)
        terms = [(j, y) for j, y in enumerate(other._nums[: n + 1]) if y]
        for i, x in enumerate(self._nums[: n + 1]):
            if x:
                for j, y in terms:
                    if i + j > n:
                        break
                    out[i + j] += x * y
        return _make(out, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["TruncatedSeries", Scalar]) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        b = other._nums
        b0 = b[0]
        if b0 == 0:
            raise ZeroDivisionError(
                "cannot divide by a series with zero constant term"
            )
        n = min(self.order, other.order)
        # With a = A/da and b = B/db, the quotient is (db/da) * q where
        # q = A/B.  Q_k = q_k * b0^(k+1) obeys the integral recurrence
        #   Q_k = A_k b0^k - sum_{j=1..k} B_j b0^(j-1) Q_{k-j},
        # so only the divisor's nonzero terms B_j b0^(j-1) enter the loop.
        terms = []
        power = 1  # b0^(j-1)
        for j in range(1, n + 1):
            if b[j]:
                terms.append((j, b[j] * power))
            power *= b0
        quot: list[int] = []
        power = 1  # b0^k
        for k, x in enumerate(self._nums[: n + 1]):
            acc = x * power
            for j, y in terms:
                if j > k:
                    break
                acc -= y * quot[k - j]
            quot.append(acc)
            power *= b0
        # term k of the quotient is db Q_k b0^(n-k) / (da b0^(n+1))
        db = other._den
        power = 1  # b0^(n-k)
        for k in range(n, -1, -1):
            quot[k] *= db * power
            power *= b0
        return _make(quot, self._den * power)

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            raise ValueError("negative powers: divide one() by the series instead")
        result = TruncatedSeries.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def pad(self, order: int) -> "TruncatedSeries":
        """Same coefficients viewed at a different order (zero-padded or cut)."""
        return TruncatedSeries(self.coeffs, order)

    # -- substitutions and evaluation --------------------------------------

    def substitute_neg_t(self) -> "TruncatedSeries":
        """The series with t replaced by -t: flips odd coefficients."""
        return _make(
            [-x if k % 2 else x for k, x in enumerate(self._nums)], self._den
        )

    def eval_at_one(self) -> tuple[Fraction, bool]:
        """Sum of the stored coefficients, with a polynomial-detection flag.

        The flag is True only when the top stored coefficient vanishes, i.e.
        the window itself witnesses that the series could be a polynomial of
        degree below its order.  A series that fills the whole window gets
        False even if it happens to be a polynomial of higher degree.
        """
        return Fraction(sum(self._nums), self._den), self._nums[-1] == 0

    # -- comparison, hashing, rendering ------------------------------------

    def __eq__(self, other: object) -> bool:
        """Coefficient-wise equality through the smaller of the two orders."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.first_divergence(other) is None

    __hash__ = None  # equality ignores trailing coefficients

    def first_divergence(self, other: "TruncatedSeries") -> int | None:
        """Smallest power at which the two series differ, None if they agree
        through the common order."""
        n = min(self.order, other.order) + 1
        a, b = self._nums[:n], other._nums[:n]
        da, db = self._den, other._den
        if da == db:
            if a == b:
                return None
            pairs = zip(a, b)
        else:
            pairs = ((x * db, y * da) for x, y in zip(a, b))
        for k, (x, y) in enumerate(pairs):
            if x != y:
                return k
        return None

    def __repr__(self) -> str:
        return f"TruncatedSeries({[str(c) for c in self.coeffs]}, order={self.order})"

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
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

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "TruncatedSeries":
        order = int(data["order"])
        coeffs = [Fraction(s) for s in data["coeffs"]]
        if order < 0:
            raise ValueError("order must be non-negative")
        if len(coeffs) != order + 1:
            raise ValueError(
                f"an order-{order} series needs {order + 1} coefficients, got {len(coeffs)}"
            )
        return cls(coeffs, order)


def polynomial(coeffs: Sequence[Scalar], order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """A polynomial viewed as a series of the given order."""
    return TruncatedSeries(coeffs, order)


def geometric(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """1/(1-t) to the given order."""
    return TruncatedSeries([1] * (order + 1), order)
