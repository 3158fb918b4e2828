"""Truncated power series in one variable t with exact rational coefficients.

A series of order N has the N+1 coefficients of t^0 .. t^N.  They are stored
as a tuple of Python int numerators over one common positive denominator,
kept in lowest terms: gcd(den, *nums) == 1, so an integral series has
den == 1 and its arithmetic never leaves the integers.  Fractions appear only
at the boundary (`coeffs`, `coefficient`, `eval_at_one`, `repr` and the text
of a rational series), each built by `_fraction` from a pair already in
lowest terms, so without the public constructor's checks and gcd; the
arithmetic, the JSON and the text of an integral series work on the
numerators.  Products loop over the nonzero terms only, and division is one
integer long division that visits only the divisor's nonzero terms.
Division by (1 - t^j)^e, the denominators of the
closed forms, needs no long division: `over_one_minus` chains e running
sums nums[k] += nums[k - j] over each residue class of the numerators mod j,
or, when e is at least the class length, multiplies each class by the
binomial series of (1 - x)^-e.

Arithmetic between series of different orders truncates to the smaller order,
which is recorded in the result; nothing is ever rounded.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Sequence, Union

DEFAULT_ORDER = 16

Scalar = Union[int, Fraction]


def _fraction(numerator: int, denominator: int = 1) -> Fraction:
    """The Fraction numerator/denominator of an int pair already in lowest
    terms with a positive denominator.  It stores the two slots the public
    constructor would store, with no type check and no gcd, as CPython
    3.12's own `Fraction._from_coprime_ints` does, so its value, type and
    hash are those of Fraction(numerator, denominator).  This is the one
    place that touches Fraction's internals."""
    out = object.__new__(Fraction)
    out._numerator = numerator
    out._denominator = denominator
    return out


def _reduced(numerator: int, denominator: int) -> Fraction:
    """The Fraction numerator/denominator for a positive denominator: the
    pair divided by its gcd, then built by `_fraction`."""
    g = gcd(numerator, denominator)
    return _fraction(numerator // g, denominator // g)


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
        if type(order) is not int or order < 0:
            raise ValueError(f"order must be an int >= 0, got {order!r}")
        del cs[order + 1 :]
        den = 1
        if not all(type(c) is int for c in cs):
            for c in cs:
                if type(c) is bool or not isinstance(c, (int, Fraction)):
                    raise ValueError(f"coefficients must be ints or Fractions, got {c!r}")
            fs = [c if type(c) is Fraction else Fraction(c) for c in cs]
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
        if type(k) is not int or k < 0:
            raise ValueError(f"exponent must be an int >= 0, got {k!r}")
        return cls([0] * k + [coeff] if k <= order else (), order)

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
                self._coeffs = tuple(map(_fraction, self._nums))
            else:
                self._coeffs = tuple(_reduced(x, den) for x in self._nums)
            return self._coeffs

    def coefficient(self, k: int) -> Fraction:
        if type(k) is not int:
            raise ValueError(f"exponent must be an int, got {k!r}")
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
        # a bool is refused as a float is: NotImplemented, so TypeError
        if isinstance(other, (int, Fraction)) and type(other) is not bool:
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
        if isinstance(other, (int, Fraction)) and type(other) is not bool:
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

    def over_one_minus(self, j: int, times: int = 1) -> "TruncatedSeries":
        """The series divided by (1 - t^j)^times.  Each factor is one
        strided running sum nums[k] += nums[k - j], a running sum over each
        residue class mod j, so each class is read once, summed times over
        and written back once.  Each sum is made a list before the next, as
        a chain of lazy `accumulate`s would recurse through all of them in
        C.  When times is at least the class length L, times sums cost more
        than one product with 1/(1 - x)^times = sum_i C(times - 1 + i, i) x^i,
        so each class is multiplied by its first L terms instead, each term
        the one before times (times - 1 + i) / i.  Either way the map is
        unimodular, so the numerators stay coprime to the denominator and
        `_make` has nothing to reduce."""
        if type(j) is not int or j < 1:
            raise ValueError(f"j must be an int >= 1, got {j!r}")
        if type(times) is not int or times < 0:
            raise ValueError(f"times must be an int >= 0, got {times!r}")
        nums = list(self._nums)
        size = -(-len(nums) // j)  # the length of the longest class, nums[0::j]
        if times >= size:
            binom = [1]
            for i in range(1, size):
                binom.append(binom[-1] * (times - 1 + i) // i)
        for r in range(min(j, len(nums))):
            sums = nums[r::j]
            if times < size:
                for _ in range(times):
                    sums = list(accumulate(sums))
            else:
                sums = [sum(map(mul, binom, sums[m::-1])) for m in range(len(sums))]
            nums[r::j] = sums
        return _make(nums, self._den)

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if type(exponent) is not int:
            raise ValueError(f"power must be an int, got {exponent!r}")
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
        return _reduced(sum(self._nums), self._den), self._nums[-1] == 0

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
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"first_divergence needs a TruncatedSeries, got {type(other).__name__}")
        a, b, _ = self._aligned(other)
        if a != b:
            for k, (x, y) in enumerate(zip(a, b)):
                if x != y:
                    return k
        return None

    def __repr__(self) -> str:
        return f"TruncatedSeries({[str(c) for c in self.coeffs]}, order={self.order})"

    def __str__(self) -> str:
        # an integral series renders its int numerators, as to_json_dict does
        out = []
        for k, c in enumerate(self._nums if self._den == 1 else self.coeffs):
            if c == 0:
                continue
            if out:
                out.append(" - " if c < 0 else " + ")
            elif c < 0:
                out.append("-")
            c = abs(c)
            if k == 0:
                out.append(str(c))
            else:
                mono = "t" if k == 1 else f"t^{k}"
                out.append(mono if c == 1 else f"{c}{mono}")
        return "".join(out) or "0"

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        # str of an int numerator is str of the Fraction it stands for
        coeffs = self._nums if self._den == 1 else self.coeffs
        return {"order": self.order, "coeffs": [str(c) for c in coeffs]}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "TruncatedSeries":
        """The series of a to_json_dict payload, a mapping with order and
        coeffs.  The coefficients must come as a list, and string ones are
        parsed as Fractions; the order and every other coefficient go to the
        constructor as they are, which refuses what it does not take."""
        if not isinstance(data, Mapping):
            raise ValueError(f"a series payload must be a mapping, got {data!r}")
        missing = [key for key in ("order", "coeffs") if key not in data]
        if missing:
            raise ValueError(f"a series payload needs {' and '.join(missing)}, got {data!r}")
        raw = data["coeffs"]
        if not isinstance(raw, list):
            raise ValueError(f"coeffs must be a list, got {raw!r}")
        try:
            coeffs = [Fraction(c) if type(c) is str else c for c in raw]
        except ZeroDivisionError:
            raise ValueError(f"coefficients must have nonzero denominators, got {raw!r}") from None
        series = cls(coeffs, data["order"])
        if len(coeffs) != series.order + 1:
            raise ValueError(
                f"an order-{series.order} series needs {series.order + 1} coefficients, "
                f"got {len(coeffs)}"
            )
        return series


def polynomial(coeffs: Sequence[Scalar], order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """A polynomial viewed as a series of the given order."""
    return TruncatedSeries(coeffs, order)
