"""t-graded dimension and superdimension series for spinor-like
representations, plus the correspondence checks between them.

Every series here is exact: coefficients are integers (read back as Fractions)
obtained from branching sums over constrained partition families or from
closed-form rational expressions.  All series are normalized so that the
lowest-weight prefactor is dropped and the constant term is the dimension of
the bottom graded piece.  Series use the +t grading; identities that need
t -> -t apply substitute_neg_t explicitly at the comparison site, never
inside a builder.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .partitions import (
    Partition,
    enum_B,
    enum_D,
    enum_offset_forms,
    enum_partitions,
)
from .schur import dim_gl_frobenius, dim_gl_weyl, sdim_gl, super_schur_eval
from .series import DEFAULT_ORDER, TruncatedSeries, polynomial


def _series_from_weights(pairs, order: int) -> TruncatedSeries:
    """Accumulate (exponent, integer) pairs into a series, skipping terms
    beyond the order."""
    coeffs = [0] * (order + 1)
    for exp, val in pairs:
        if exp <= order:
            coeffs[exp] += val
    return TruncatedSeries(coeffs, order)


def osp1_numerator(n: int, p: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Numerator polynomial of the closed-form osp(1|2n) t-dimension.

    A signed sum of gl(n) dimensions over the Frobenius forms (a | a + p):
    the form with arms a and rank r contributes at t^(2|a| + (p+1)r).  For
    p >= n the polynomial is 1.  For p = 0 it factors as
    (1-t)^n (1-t^2)^(n(n-1)/2), and for p = 1 as (1-t^2)^(n(n-1)/2).
    """
    if n < 0 or p < 0:
        raise ValueError("n and p must be non-negative")

    def terms():
        for form, sign in enum_offset_forms(n, p):
            exp = 2 * sum(form.arms) + (p + 1) * form.rank
            if form.rank == 0:
                yield exp, sign
            else:
                yield exp, sign * dim_gl_frobenius(n, form)

    return _series_from_weights(terms(), order)


def osp1_dim_t(
    n: int, p: int, order: int = DEFAULT_ORDER, route: str = "sum"
) -> TruncatedSeries:
    """t-dimension of the order-p paraboson representation of osp(1|2n),
    graded by polynomial degree and normalized to constant term 1.

    route="sum" accumulates gl(n) dimensions over partitions with at most
    min(n, p) rows; route="closed" divides the numerator polynomial by
    (1-t)^n (1-t^2)^(n(n-1)/2).  The two routes agree identically and are
    kept separate on purpose.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if p < 0:
        raise ValueError("p must be non-negative")
    if route == "sum":
        return _series_from_weights(
            (
                (lam.weight, dim_gl_weyl(n, lam))
                for lam in enum_partitions(order, None, min(n, p))
            ),
            order,
        )
    if route == "closed":
        den = polynomial([1, -1], order) ** n * polynomial([1, 0, -1], order) ** (
            n * (n - 1) // 2
        )
        return osp1_numerator(n, p, order) / den
    raise ValueError(f"unknown route {route!r}")


def ospB_sdim_t(m: int, n: int, p: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Superdimension series of the osp(2m+1|2n) irrep with Dynkin label
    [0,...,0,p], graded by the gl(m|n) level and taken at +t.

    The sum runs over partitions with lambda_1 <= p weighted by the gl(m|n)
    superdimension; the enumeration bounds below are exactly the shapes on
    which that superdimension can be non-zero.
    """
    if m < 0 or n < 0 or p < 0:
        raise ValueError("m, n and p must be non-negative")
    if m >= n:
        lams = enum_partitions(order, p, m - n)
    else:
        lams = enum_partitions(order, min(p, n - m), None)
    return _series_from_weights(
        ((lam.weight, sdim_gl(m, n, lam)) for lam in lams), order
    )


def so_odd_dim_t(k: int, p: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Dimension series of the so(2k+1) irrep [0,...,0,p] graded by gl(k)
    level: a polynomial of degree k*p summing gl(k) dimensions over
    partitions inside the k x p rectangle."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if p < 0:
        raise ValueError("p must be non-negative")
    return _series_from_weights(
        (
            (lam.weight, dim_gl_weyl(k, lam))
            for lam in enum_partitions(min(order, k * p), p, k)
        ),
        order,
    )


def ospD_sdim_t(m: int, n: int, p: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Superdimension series of the osp(2m|2n) irrep [0,...,0,p], graded by
    gl(m|n) level at +t: like the odd case but restricted to partitions in
    which every part value occurs an even number of times."""
    if m < 0 or n < 0 or p < 0:
        raise ValueError("m, n and p must be non-negative")
    if m >= n:
        lams = enum_B(order, p, m - n)
    else:
        lams = enum_B(order, min(p, n - m), None)
    return _series_from_weights(
        ((lam.weight, sdim_gl(m, n, lam)) for lam in lams), order
    )


def so_even_dim_t(
    k: int, p: int, chirality: str = "last", order: int = DEFAULT_ORDER
) -> TruncatedSeries:
    """Dimension series of an so(2k) irrep with Dynkin label [0,...,0,p]
    (chirality "last") or [0,...,p,0] (chirality "next_to_last"), graded by
    gl(k) level.

    Both chiralities are sums of gl(k) dimensions over even-multiplicity
    partitions bounded by width p; depending on the parity of k, one
    chirality sums plain shapes lambda and the other shapes (p, lambda) with
    an extra first row.  Prepended shapes are graded by |lambda| alone, so
    the constant term of that branch is the dimension of the single row (p).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if p < 0:
        raise ValueError("p must be non-negative")
    if chirality not in ("last", "next_to_last"):
        raise ValueError(f"unknown chirality {chirality!r}")
    plain = (chirality == "last") == (k % 2 == 0)
    if plain:
        max_len = k if k % 2 == 0 else k - 1
        pairs = (
            (lam.weight, dim_gl_weyl(k, lam)) for lam in enum_B(order, p, max_len)
        )
    else:
        max_len = k - 2 if k % 2 == 0 else k - 1
        pairs = (
            (lam.weight, dim_gl_weyl(k, Partition((p,) + lam.parts)))
            for lam in enum_B(order, p, max_len)
        )
    return _series_from_weights(pairs, order)


def sp_dim_t(k: int, p: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Dimension series of the sp(2k) irrep with highest weight (-p/2)^k,
    graded by gl(k) level at +t: gl(k) dimensions summed over partitions
    with even parts and at most min(p, k) rows.  Only even powers of t
    occur."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if p < 0:
        raise ValueError("p must be non-negative")
    return _series_from_weights(
        (
            (lam.weight, dim_gl_weyl(k, lam))
            for lam in enum_D(order, min(p, k))
        ),
        order,
    )


def spinor_tdim(m: int, n: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """t-dimension 2^m/(1-t)^n of the spinor representation of osp(2m|2n),
    graded by polynomial degree in the n bosonic generators."""
    if m < 0 or n < 0:
        raise ValueError("m and n must be non-negative")
    num = TruncatedSeries([2**m], order)
    return num / polynomial([1, -1], order) ** n


def spinor_sdim(m: int, n: int) -> Fraction:
    """Superdimension 2^(m-n) of the osp(2m|2n) spinor; a non-integer
    rational when n > m."""
    if m < 0 or n < 0:
        raise ValueError("m and n must be non-negative")
    return Fraction(2) ** (m - n)


def _d21_branches(p: int) -> list[tuple[int, int]]:
    """(offset, dimension) of each su(2)+su(2) branch in the decomposition
    of the D(2,1;alpha) irrep [0,0,p]; the branch at offset o occupies
    levels o, o+2, o+4, ..."""
    if p == 1:
        labels = [(0, (0, 1)), (1, (1, 0))]
    else:
        labels = [(0, (0, p)), (1, (1, p - 1)), (2, (0, p - 2))]
    return [(o, (a + 1) * (b + 1)) for o, (a, b) in labels]


def d21_sdim_t(p: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Superdimension series of the D(2,1;alpha) irrep [0,0,p] graded by
    the level of its negative discrete series branches, independent of
    alpha.  Level j collects every branch whose offset matches j in parity,
    with sign (-1)^j; the closed form is (1-p) + 2p/(1+t)."""
    if p < 1:
        raise ValueError("p must be at least 1")
    branches = _d21_branches(p)
    coeffs = []
    for j in range(order + 1):
        total = sum(d for o, d in branches if o <= j and (j - o) % 2 == 0)
        coeffs.append(-total if j % 2 else total)
    return TruncatedSeries(coeffs, order)


def d21_sdim_closed(p: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Closed form (1-p) + 2p/(1+t) of the same series; its value at t=1
    is 1 for every p, matching the dimension of the so(2) irrep [p]."""
    if p < 1:
        raise ValueError("p must be at least 1")
    return polynomial([1 - p], order) + polynomial([2 * p], order) / polynomial(
        [1, 1], order
    )


# -- irrep specifications and reports ----------------------------------------

FAMILIES = ("gl", "glsuper", "osp1", "ospB", "ospD", "soOdd", "soEven", "sp", "d21", "spinor")

_REQUIRED = {
    "gl": ("n", "lam"),
    "glsuper": ("m", "n", "lam"),
    "osp1": ("n", "p"),
    "ospB": ("m", "n", "p"),
    "ospD": ("m", "n", "p"),
    "soOdd": ("k", "p"),
    "soEven": ("k", "p"),
    "sp": ("k", "p"),
    "d21": ("p",),
    "spinor": ("m", "n"),
}


@dataclass(frozen=True)
class IrrepSpec:
    """A representation named the way the CLI and reports name it."""

    family: str
    m: int | None = None
    n: int | None = None
    k: int | None = None
    p: int | None = None
    chirality: str | None = None
    lam: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        for name in _REQUIRED[self.family]:
            if getattr(self, name) is None:
                raise ValueError(f"family {self.family!r} needs parameter {name}")
        if self.family == "soEven" and self.chirality not in ("last", "next_to_last"):
            raise ValueError("family 'soEven' needs chirality last or next_to_last")

    @property
    def algebra(self) -> str:
        f = self.family
        if f == "gl":
            return f"gl({self.n})"
        if f == "glsuper":
            return f"gl({self.m}|{self.n})"
        if f == "osp1":
            return f"osp(1|{2 * self.n})"
        if f == "ospB":
            return f"osp({2 * self.m + 1}|{2 * self.n})"
        if f in ("ospD", "spinor"):
            return f"osp({2 * self.m}|{2 * self.n})"
        if f == "soOdd":
            return f"so({2 * self.k + 1})"
        if f == "soEven":
            return f"so({2 * self.k})"
        if f == "sp":
            return f"sp({2 * self.k})"
        return "D(2,1;alpha)"

    @property
    def label(self) -> str:
        f = self.family
        if f in ("gl", "glsuper"):
            return "(" + ",".join(map(str, self.lam)) + ")" if self.lam else "(0)"
        if f == "osp1":
            entries = ["0"] * (self.n - 1) + [str(-self.p)]
        elif f in ("ospB", "ospD"):
            entries = ["0"] * (self.m + self.n - 1) + [str(self.p)]
        elif f == "spinor":
            entries = ["0"] * (self.m + self.n - 1) + ["1"]
        elif f == "soOdd":
            entries = ["0"] * (self.k - 1) + [str(self.p)]
        elif f == "soEven":
            if self.chirality == "last":
                entries = ["0"] * (self.k - 1) + [str(self.p)]
            else:
                entries = ["0"] * (self.k - 2) + [str(self.p), "0"]
        elif f == "sp":
            entries = ["0"] * (self.k - 1) + [str(Fraction(-self.p, 2))]
        else:  # d21
            entries = ["0", "0", str(self.p)]
        return "[" + ",".join(entries) + "]"

    def describe(self) -> str:
        return f"{self.label} {self.algebra}"

    def to_json_dict(self) -> dict:
        out = {"family": self.family, "label": self.label}
        for name in ("m", "n", "k", "p"):
            out[name] = getattr(self, name)
        if self.chirality is not None:
            out["chirality"] = self.chirality
        if self.lam is not None:
            out["lambda"] = list(self.lam)
        return out


@dataclass(frozen=True)
class Side:
    """One side of a correspondence: which irrep, computed how."""

    spec: IrrepSpec
    route: str
    series: TruncatedSeries


@dataclass(frozen=True)
class CorrespondenceReport:
    case: str
    left: Side
    right: Side
    match: bool
    first_divergence: int | None

    def to_json_dict(self) -> dict:
        return {
            "case": self.case,
            "left": {
                "spec": self.left.spec.to_json_dict(),
                "route": self.left.route,
                **self.left.series.to_json_dict(),
            },
            "right": {
                "spec": self.right.spec.to_json_dict(),
                "route": self.right.route,
                **self.right.series.to_json_dict(),
            },
            "verdict": "match" if self.match else "mismatch",
            "first_divergence": self.first_divergence,
        }


CASES = ("ospB-vs-soOdd", "ospB-vs-osp1", "ospD-vs-soEven", "ospD-vs-sp", "d21-vs-so2")


def verify_correspondence(
    case: str,
    *,
    k: int | None = None,
    p: int | None = None,
    n: int | None = None,
    m: int | None = None,
    order: int = DEFAULT_ORDER,
) -> CorrespondenceReport:
    """Compute both sides of one superdimension correspondence and compare
    them coefficient by coefficient through the given order.

    The free parameter (n for a wide odd algebra, m for a tall one) defaults
    to 1; the identity asserts independence of it.
    """
    if case == "ospB-vs-soOdd":
        if k is None or p is None:
            raise ValueError(f"case {case!r} needs k and p")
        n = 1 if n is None else n
        left_spec = IrrepSpec("ospB", m=n + k, n=n, p=p)
        left = ospB_sdim_t(n + k, n, p, order)
        right_spec = IrrepSpec("soOdd", k=k, p=p)
        right = so_odd_dim_t(k, p, order)
        sides = Side(left_spec, "branching", left), Side(right_spec, "branching", right)
    elif case == "ospB-vs-osp1":
        if k is None or p is None:
            raise ValueError(f"case {case!r} needs k and p")
        m = 1 if m is None else m
        left_spec = IrrepSpec("ospB", m=m, n=m + k, p=p)
        left = ospB_sdim_t(m, m + k, p, order)
        right_spec = IrrepSpec("osp1", n=k, p=p)
        right = osp1_dim_t(k, p, order, route="closed").substitute_neg_t()
        sides = Side(left_spec, "branching", left), Side(right_spec, "closed at -t", right)
    elif case == "ospD-vs-soEven":
        if k is None or p is None:
            raise ValueError(f"case {case!r} needs k and p")
        if k < 2:
            raise ValueError("the even orthogonal side needs k >= 2")
        n = 1 if n is None else n
        chirality = "last" if k % 2 == 0 else "next_to_last"
        left_spec = IrrepSpec("ospD", m=n + k, n=n, p=p)
        left = ospD_sdim_t(n + k, n, p, order)
        right_spec = IrrepSpec("soEven", k=k, p=p, chirality=chirality)
        right = so_even_dim_t(k, p, chirality, order)
        sides = Side(left_spec, "branching", left), Side(right_spec, "branching", right)
    elif case == "ospD-vs-sp":
        if k is None or p is None:
            raise ValueError(f"case {case!r} needs k and p")
        m = 1 if m is None else m
        left_spec = IrrepSpec("ospD", m=m, n=m + k, p=p)
        left = ospD_sdim_t(m, m + k, p, order)
        right_spec = IrrepSpec("sp", k=k, p=p)
        right = sp_dim_t(k, p, order).substitute_neg_t()
        sides = Side(left_spec, "branching", left), Side(right_spec, "branching at -t", right)
    elif case == "d21-vs-so2":
        if p is None:
            raise ValueError(f"case {case!r} needs p")
        spec = IrrepSpec("d21", p=p)
        left = d21_sdim_t(p, order)
        right = d21_sdim_closed(p, order)
        sides = Side(spec, "branching", left), Side(spec, "closed form", right)
    else:
        raise ValueError(f"unknown case {case!r}; choose from {', '.join(CASES)}")
    left_side, right_side = sides
    div = left_side.series.first_divergence(right_side.series)
    return CorrespondenceReport(case, left_side, right_side, div is None, div)


# -- randomized product-expansion check --------------------------------------


@dataclass(frozen=True)
class CumminsKingReport:
    m: int
    n: int
    order: int
    trials: int
    seed: int
    match: bool
    failed_trial: int | None = None
    first_divergence: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "order": self.order,
            "trials": self.trials,
            "seed": self.seed,
            "verdict": "match" if self.match else "mismatch",
            "failed_trial": self.failed_trial,
            "first_divergence": self.first_divergence,
        }


def _random_nonzero_fraction(rng: random.Random) -> Fraction:
    num = rng.choice([i for i in range(-9, 10) if i != 0])
    return Fraction(num, rng.randint(1, 9))


def _ck_product_side(xs: Sequence[Fraction], ys: Sequence[Fraction], order: int) -> TruncatedSeries:
    """prod (1 + x_i y_j u^2) / (prod_{i<j} (1 - x_i x_j u^2)
    prod_{i<=j} (1 - y_i y_j u^2)) as a series in u."""
    num = TruncatedSeries.one(order)
    for x in xs:
        for y in ys:
            num = num * polynomial([1, 0, x * y], order)
    den = TruncatedSeries.one(order)
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            den = den * polynomial([1, 0, -xs[i] * xs[j]], order)
    for i in range(len(ys)):
        for j in range(i, len(ys)):
            den = den * polynomial([1, 0, -ys[i] * ys[j]], order)
    return num / den


def _ck_schur_side(
    xs: Sequence[Fraction], ys: Sequence[Fraction], order: int, max_weight: int | None = None
) -> TruncatedSeries:
    """Sum over even-multiplicity partitions beta of s_beta(x|y) u^|beta|;
    homogeneity places each term at the power equal to its weight."""
    cap = order if max_weight is None else max_weight
    coeffs = [Fraction(0)] * (order + 1)
    for beta in enum_B(cap):
        val = super_schur_eval(beta, xs, ys)
        if val:
            coeffs[beta.weight] += val
    return TruncatedSeries(coeffs, order)


def cummins_king_check(
    m: int, n: int, order: int = 8, trials: int = 5, seed: int = 0
) -> CumminsKingReport:
    """Check the product expansion of the even-multiplicity Schur sum at
    random exact rational points.

    Both sides are series in an auxiliary variable u scaling all
    coordinates; they must agree coefficient-for-coefficient through the
    order.  Deterministic for a fixed seed.
    """
    if m < 0 or n < 0:
        raise ValueError("m and n must be non-negative")
    rng = random.Random(seed)
    for trial in range(trials):
        xs = [_random_nonzero_fraction(rng) for _ in range(m)]
        ys = [_random_nonzero_fraction(rng) for _ in range(n)]
        lhs = _ck_product_side(xs, ys, order)
        rhs = _ck_schur_side(xs, ys, order)
        div = lhs.first_divergence(rhs)
        if div is not None:
            return CumminsKingReport(
                m, n, order, trials, seed, False, failed_trial=trial, first_divergence=div
            )
    return CumminsKingReport(m, n, order, trials, seed, True)
