"""t-graded dimension and superdimension series for spinor-like
representations, plus the correspondence checks between them.

Every series here is exact: coefficients are integers (read back as Fractions)
obtained from branching sums over constrained partition families or from
closed-form rational expressions.  All series are normalized so that the
lowest-weight prefactor is dropped and the constant term is the dimension of
the bottom graded piece.  Every branching sum is one plain gl(k) sum over the
sibling batches of a partition family: it reads one row of gl(k) dimensions
per batch.  The even-multiplicity family and so(2k)'s shapes under a head row
come as one-child batches.  One process-wide owner, `SUMS`, keeps each sum as
a `GradedSum` record keyed by (k, stream, bounds), and `GradedSums.series`,
the one place the loop runs, either reads a record or sums the family's stream
above what it holds.  So builders that stream one family at one gl(k) read one
sum: both sides of ospB-vs-soOdd, ospD-vs-soEven and ospD-vs-sp (ROADMAP item
1).  The closed routes never read the table: the osp(1|2n) numerator is a sum
of its own over the Frobenius forms that reach the order, kept per (n, p,
degree clipped to the order) apart from `SUMS`, and every closed form is
divided by its (1 - t^j) factors one running sum at a time, never by long
division.  Builders return the +t grading; identities that need t -> -t apply
substitute_neg_t explicitly at the comparison site.  The one use inside a
builder is the tall (m < n) ospB sum: a gl(n-m) sum over the conjugate shapes,
taken at -t for the superdimension's sign (-1)^|lambda|.

Two tables name everything the package can build and check.  FAMILIES has
one row per family: the rule of each parameter, its algebra and Dynkin-label
text, and the series builder of each of its routes.  CASES has one row per
correspondence: its required parameters with their lower bounds, its free
rank parameter, and for each of its two sides the spec and the route of that
spec's FAMILIES row, taken at -t where the identity needs it, so each
builder is called from one place.  IrrepSpec, verify_correspondence and the
command line read these tables, so a new family or case is one new row, and
every route a verdict names is one `ospdim series --route` takes.  One
checker, `_check_params`, checks every rank, label, route, order and count:
builders, IrrepSpec and verify_correspondence against their row (plus order
for a series), osp1_numerator and cummins_king_check against their own rules.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from functools import cache, cached_property
from math import inf
from typing import Callable, NamedTuple, Sequence

# enum_D, enum_offset_forms and enum_partitions stay importable for bench/layertrace.py
from .partitions import (
    Batches,
    Partition,
    _offset_forms,
    doubled_batches,
    enum_B,
    enum_D,
    enum_offset_forms,
    enum_partitions,
    evened_batches,
    partition_batches,
)
from .schur import dim_gl_frobenius, super_schur_eval, weyl_table
from .series import DEFAULT_ORDER, TruncatedSeries, polynomial


@dataclass(slots=True)
class GradedSum:
    """One held gl(k) sum: its coefficients through the highest order asked
    for so far, exact ints only, and what `SUMS` did for its key: sums (the
    first, which made the record, and each later one above the held
    order), reads at or below it, and the shapes its sums added."""

    coeffs: list[int]
    sums: int = 0
    reads: int = 0
    shapes: int = 0


class GradedSums(dict):
    """The process's graded gl(k) sums: (k, stream, bounds) -> GradedSum.

    The coefficient of t^w does not depend on the order, so a request at
    or below the held order reads a prefix, and any other sums.  A missing
    key counts as an empty record, and a sum streams only the shapes
    heavier than the held order (`above=`), so a first walk is a resume
    above nothing, with above=None.  Per (parent, weight, cs) batch it reads
    the row `weyl_table(k).row(parent, cs[0])` and adds the gl(k) dimension
    of parent + (c,) to t^(weight + c) of a copy of the held coefficients.
    The record and its counts are written only once the stream is spent,
    so a refused or failed sum leaves no record and no count.  No frontier
    of a walk is kept, only the coefficients."""

    def series(self, order: int, k: int, stream: Callable[..., Batches], *bounds) -> TruncatedSeries:
        """The gl(k) sum over stream(order, *bounds) through t^order."""
        key = (k, stream, bounds)
        held = self.get(key) or GradedSum([])
        if len(held.coeffs) > order:
            held.reads += 1
            return TruncatedSeries(held.coeffs, order)
        above = len(held.coeffs) - 1 if held.coeffs else None
        coeffs = held.coeffs + [0] * (order - len(held.coeffs) + 1)
        row = weyl_table(k).row
        shapes = 0
        for parent, weight, cs in stream(order, *bounds, above=above):
            dims = row(parent, cs[0])
            for c in cs:
                coeffs[weight + c] += dims[c]
            shapes += len(cs)
        held.coeffs = coeffs
        held.sums += 1
        held.shapes += shapes
        self[key] = held
        return TruncatedSeries(coeffs, order)


SUMS = GradedSums()


def osp1_numerator(n: int, p: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Numerator polynomial of the closed-form osp(1|2n) t-dimension.

    A signed sum of gl(n) dimensions over the Frobenius forms (a | a + p):
    the form with arms a and rank r contributes at t^(2|a| + (p+1)r).  For
    p >= n the polynomial is 1.  For p = 0 it factors as
    (1-t)^n (1-t^2)^(n(n-1)/2), and for p = 1 as (1-t^2)^(n(n-1)/2).  Its
    full degree is max(n - p, 0) * n; the sum is kept per (n, p) and that
    degree clipped to the order, so a low order never draws the high forms.
    """
    _check_params("function", "osp1_numerator", {"n": 0, "p": 0, "order": 0},
                  {"n": n, "p": p, "order": order})
    degree = min(order, max(n - p, 0) * n)
    return TruncatedSeries(_osp1_numerator_coeffs(n, p, degree), order)


@cache
def _osp1_numerator_coeffs(n: int, p: int, degree: int) -> tuple[int, ...]:
    """The coefficients of t^0 .. t^degree of `osp1_numerator(n, p)`, over
    only the forms that reach one."""
    coeffs = [0] * (degree + 1)
    for form, sign in _offset_forms(max(n - p, 0), p, degree):
        exp = 2 * sum(form.arms) + (p + 1) * form.rank
        coeffs[exp] += sign * dim_gl_frobenius(n, form) if form.rank else sign
    return tuple(coeffs)


def osp1_dim_t(
    n: int, p: int, order: int = DEFAULT_ORDER, route: str = "sum"
) -> TruncatedSeries:
    """t-dimension of the order-p paraboson representation of osp(1|2n),
    graded by polynomial degree and normalized to constant term 1.

    route="sum" accumulates gl(n) dimensions over partitions with at most
    min(n, p) rows; route="closed" divides the numerator polynomial by
    (1-t)^n (1-t^2)^(n(n-1)/2), one factor at a time: n running sums, then
    n(n-1)/2 running sums over every other coefficient.  The two routes
    agree identically and are kept separate on purpose.
    """
    _check_family("osp1", n=n, p=p, order=order, route=route)
    if route == "sum":
        return SUMS.series(order, n, partition_batches, None, min(n, p))
    return osp1_numerator(n, p, order).over_one_minus(1, n).over_one_minus(2, n * (n - 1) // 2)


def ospB_sdim_t(m: int, n: int, p: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Superdimension series of the osp(2m+1|2n) irrep with Dynkin label
    [0,...,0,p], graded by the gl(m|n) level and taken at +t.

    The sum runs over partitions with lambda_1 <= p weighted by the gl(m|n)
    superdimension; the enumeration bounds below are exactly the shapes on
    which that superdimension can be non-zero.  When m >= n that is the
    gl(m-n) dimension of each shape.  When m < n it is (-1)^|lambda| times
    the gl(n-m) dimension of the conjugate, so the gl(n-m) sum runs over
    the conjugates, the shapes with at most min(p, n-m) rows, and t -> -t
    puts in the sign.
    """
    _check_family("ospB", m=m, n=n, p=p, order=order)
    if m >= n:
        return SUMS.series(order, m - n, partition_batches, p, m - n)
    return SUMS.series(order, n - m, partition_batches, None, min(p, n - m)).substitute_neg_t()


def so_odd_dim_t(k: int, p: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Dimension series of the so(2k+1) irrep [0,...,0,p] graded by gl(k)
    level: a polynomial of degree k*p summing gl(k) dimensions over
    partitions inside the k x p rectangle."""
    _check_family("soOdd", k=k, p=p, order=order)
    return SUMS.series(order, k, partition_batches, p, k)


def ospD_sdim_t(m: int, n: int, p: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Superdimension series of the osp(2m|2n) irrep [0,...,0,p], graded by
    gl(m|n) level at +t: like the odd case but restricted to partitions in
    which every part value occurs an even number of times.  When m < n the
    gl(n-m) sum runs over their conjugates, the even-part shapes with at
    most min(p, n-m) rows.  Unlike ospB no t -> -t is needed: an even-part
    shape has even weight, so the sign (-1)^|lambda| is always +1."""
    _check_family("ospD", m=m, n=n, p=p, order=order)
    if m >= n:
        return SUMS.series(order, m - n, doubled_batches, p, m - n)
    return SUMS.series(order, n - m, evened_batches, min(p, n - m))


def _headed_batches(max_weight: int, head: int, max_len: int, *, above: int | None = None) -> Batches:
    """The doubled batches of `doubled_batches(max_weight, head, max_len,
    above=above)` under the head row (head): the row goes above each
    parent and leaves the grading alone, so the root batch ((), 0, (0,))
    becomes (head) itself at t^0."""
    for parent, weight, cs in doubled_batches(max_weight, head, max_len, above=above):
        yield (head,) + parent, weight, cs


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
    _check_family("soEven", k=k, p=p, chirality=chirality, order=order)
    # at most k rows, or k - 1 under the head row; doubling rounds both down
    if chirality == _CHIRALITY[k % 2]:
        return SUMS.series(order, k, doubled_batches, p, k)
    return SUMS.series(order, k, _headed_batches, p, k - 1)


def sp_dim_t(k: int, p: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Dimension series of the sp(2k) irrep with highest weight (-p/2)^k,
    graded by gl(k) level at +t: gl(k) dimensions summed over partitions
    with even parts and at most min(p, k) rows.  Only even powers of t
    occur."""
    _check_family("sp", k=k, p=p, order=order)
    return SUMS.series(order, k, evened_batches, min(p, k))


def spinor_tdim(m: int, n: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """t-dimension 2^m/(1-t)^n of the spinor representation of osp(2m|2n),
    graded by polynomial degree in the n bosonic generators: the constant
    2^m divided by (1-t) n times, each time one running sum."""
    _check_family("spinor", m=m, n=n, order=order)
    return TruncatedSeries([2**m], order).over_one_minus(1, n)


def spinor_sdim(m: int, n: int) -> Fraction:
    """Superdimension 2^(m-n) of the osp(2m|2n) spinor; a non-integer
    rational when n > m."""
    _check_params("family", "spinor", FAMILIES["spinor"].params, {"m": m, "n": n})
    return Fraction(2) ** (m - n)


def _d21_branches(p: int) -> list[tuple[int, int]]:
    """(offset, dimension) of each su(2)+su(2) branch in the decomposition
    of the D(2,1;alpha) irrep [0,0,p]; the branch at offset o occupies
    levels o, o+2, o+4, ...  At p = 1 the third label (0, -1) has
    dimension (0 + 1)(-1 + 1) = 0, so p = 1 needs no rule of its own."""
    labels = [(0, (0, p)), (1, (1, p - 1)), (2, (0, p - 2))]
    return [(o, (a + 1) * (b + 1)) for o, (a, b) in labels]


def d21_sdim_t(p: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Superdimension series of the D(2,1;alpha) irrep [0,0,p] graded by
    the level of its negative discrete series branches, independent of
    alpha.  Level j collects every branch whose offset matches j in parity,
    with sign (-1)^j; the closed form is (1-p) + 2p/(1+t)."""
    _check_family("d21", p=p, order=order)
    branches = _d21_branches(p)
    coeffs = []
    for j in range(order + 1):
        total = sum(d for o, d in branches if o <= j and (j - o) % 2 == 0)
        coeffs.append(-total if j % 2 else total)
    return TruncatedSeries(coeffs, order)


def d21_sdim_closed(p: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Closed form (1-p) + 2p/(1+t) = ((1+p) - 2p t + (p-1)t^2)/(1-t^2) of
    the same series, one running sum over every other coefficient; its value
    at t=1 is 1 for every p, matching the dimension of the so(2) irrep [p]."""
    _check_family("d21", p=p, order=order)
    return polynomial([1 + p, -2 * p, p - 1], order).over_one_minus(2)


# -- the family table and irrep specifications -------------------------------
# Rows look builders up by module global at call time, so a patched builder runs.


def _dynkin(rank: int, *tail) -> str:
    """The Dynkin label [0,...,0,*tail] with rank entries."""
    return "[" + ",".join(["0"] * (rank - len(tail)) + [str(x) for x in tail]) + "]"


class Family(NamedTuple):
    """One row of the family table.  params maps each parameter, in the
    order a missing one is reported, to its rule for `_check_params`: an
    int lower bound, a tuple of allowed values or None (any partition).
    routes maps each route name to its series builder, the first route
    being the default, and is empty for a family without a series."""

    params: dict[str, int | tuple[str, ...] | None]
    algebra: Callable[[IrrepSpec], str]
    label: Callable[[IrrepSpec], str]
    routes: dict[str, Callable[[IrrepSpec, int], TruncatedSeries]]


def _check_params(kind: str, owner: str, rules: dict, values: dict) -> None:
    """Refuse with a ValueError naming the owner, of kind "family", "case" or
    "function", a value for a name without a rule, a missing value (None) and
    one that breaks its rule in the Family.params format: a number is a lower
    bound on an int, which a bool is not, so -inf takes any int; a tuple lists
    the allowed values; None asks for a partition.  Nothing is formatted
    unless one is refused."""
    for name, value in values.items():
        if value is not None and name not in rules:
            raise ValueError(f"{kind} {owner!r} takes no parameter {name}")
    for name, rule in rules.items():
        value = values.get(name)
        if rule is None:
            try:
                ok = tuple(value) == Partition(value).parts
            except (TypeError, ValueError):
                ok = False
        elif isinstance(rule, tuple):
            ok = value in rule
        else:
            ok = type(value) is int and value >= rule
        if not ok:
            if rule is None:
                need = "a partition"
            elif isinstance(rule, tuple):
                need = " or ".join(rule)
            elif rule == -inf:
                need = "an int"
            else:
                need = f">= {rule}" if value is None or type(value) is int else f"an int >= {rule}"
            got = "" if value is None else f", got {value}"
            raise ValueError(f"{kind} {owner!r} needs {name} {need}{got}")


def _check_family(family: str, **values) -> None:
    """Check a series builder's arguments against its family's row plus
    order, an int >= 0, and route, if given, one of the row's routes."""
    row = FAMILIES[family]
    rules = {**row.params, "order": 0}
    if "route" in values:
        rules["route"] = tuple(row.routes)
    _check_params("family", family, rules, values)


# the so(2k) chiralities; osp(2m|2n) with m - n = k matches the one at k % 2
_CHIRALITY = ("last", "next_to_last")

FAMILIES: dict[str, Family] = {
    "gl": Family({"n": 1, "lam": None}, lambda s: f"gl({s.n})", lambda s: str(Partition(s.lam)), {}),
    "glsuper": Family(
        {"m": 0, "n": 0, "lam": None}, lambda s: f"gl({s.m}|{s.n})", lambda s: str(Partition(s.lam)), {}
    ),
    "osp1": Family(
        {"n": 1, "p": 0}, lambda s: f"osp(1|{2 * s.n})", lambda s: _dynkin(s.n, -s.p),
        {
            "sum": lambda s, o: osp1_dim_t(s.n, s.p, o, route="sum"),
            "closed": lambda s, o: osp1_dim_t(s.n, s.p, o, route="closed"),
        },
    ),
    "ospB": Family(
        {"m": 0, "n": 0, "p": 0}, lambda s: f"osp({2 * s.m + 1}|{2 * s.n})",
        lambda s: _dynkin(s.m + s.n, s.p), {"branching": lambda s, o: ospB_sdim_t(s.m, s.n, s.p, o)}
    ),
    "ospD": Family(
        {"m": 0, "n": 0, "p": 0}, lambda s: f"osp({2 * s.m}|{2 * s.n})",
        lambda s: _dynkin(s.m + s.n, s.p), {"branching": lambda s, o: ospD_sdim_t(s.m, s.n, s.p, o)}
    ),
    "soOdd": Family(
        {"k": 1, "p": 0}, lambda s: f"so({2 * s.k + 1})",
        lambda s: _dynkin(s.k, s.p), {"branching": lambda s, o: so_odd_dim_t(s.k, s.p, o)}
    ),
    "soEven": Family(
        {"k": 2, "p": 0, "chirality": _CHIRALITY}, lambda s: f"so({2 * s.k})",
        lambda s: _dynkin(s.k, s.p) if s.chirality == "last" else _dynkin(s.k, s.p, 0),
        {"branching": lambda s, o: so_even_dim_t(s.k, s.p, s.chirality, o)},
    ),
    "sp": Family(
        {"k": 1, "p": 0}, lambda s: f"sp({2 * s.k})",
        lambda s: _dynkin(s.k, Fraction(-s.p, 2)), {"branching": lambda s, o: sp_dim_t(s.k, s.p, o)}
    ),
    "d21": Family(
        {"p": 1}, lambda s: "D(2,1;alpha)",
        lambda s: _dynkin(3, s.p),
        {"branching": lambda s, o: d21_sdim_t(s.p, o), "closed": lambda s, o: d21_sdim_closed(s.p, o)},
    ),
    "spinor": Family(
        {"m": 0, "n": 0}, lambda s: f"osp({2 * s.m}|{2 * s.n})",
        lambda s: _dynkin(s.m + s.n, 1), {"closed": lambda s, o: spinor_tdim(s.m, s.n, o)}
    ),
}


@dataclass(frozen=True)
class IrrepSpec:
    """A representation named the way the CLI and reports name it, its
    parameters checked by `_check_params` against its family's table row.
    lam is stored as a tuple, so a spec given a list equals and hashes as
    one given the tuple."""

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
        _check_params("family", self.family, FAMILIES[self.family].params,
                      {f.name: getattr(self, f.name) for f in fields(self) if f.name != "family"})
        if self.lam is not None:
            object.__setattr__(self, "lam", tuple(self.lam))

    @property
    def algebra(self) -> str:
        return FAMILIES[self.family].algebra(self)

    @property
    def label(self) -> str:
        return FAMILIES[self.family].label(self)

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


# -- the case table and correspondence reports -------------------------------


@dataclass(frozen=True)
class Side:
    """One side of a correspondence: which irrep, computed how."""

    spec: IrrepSpec
    route: str
    series: TruncatedSeries

    def to_json_dict(self) -> dict:
        return {"spec": self.spec.to_json_dict(), "route": self.route, **self.series.to_json_dict()}


@dataclass(frozen=True)
class CorrespondenceReport:
    """Both sides of one case; the verdict is derived from their series,
    which are compared once per report."""

    case: str
    left: Side
    right: Side

    @cached_property
    def first_divergence(self) -> int | None:
        return self.left.series.first_divergence(self.right.series)

    @property
    def compared_through(self) -> int:
        """The highest power compared: the smaller of the two orders."""
        return min(self.left.series.order, self.right.series.order)

    @property
    def match(self) -> bool:
        return self.first_divergence is None

    def to_json_dict(self) -> dict:
        return {
            "case": self.case,
            "left": self.left.to_json_dict(),
            "right": self.right.to_json_dict(),
            "verdict": "match" if self.match else "mismatch",
            "first_divergence": self.first_divergence,
        }


class CaseSide(NamedTuple):
    """One side of a case: its spec from the case parameters, passed by
    name, the route of its family's row that computes it, and whether the
    series is taken at -t."""

    spec: Callable[..., IrrepSpec]
    route: str
    at_neg_t: bool = False

    def compute(self, params: dict[str, int], order: int) -> Side:
        spec = self.spec(**params)
        series = FAMILIES[spec.family].routes[self.route](spec, order)
        if self.at_neg_t:
            return Side(spec, f"{self.route} at -t", series.substitute_neg_t())
        return Side(spec, self.route, series)


class Case(NamedTuple):
    """One row of the case table: the lower bound of each required
    parameter, the free rank parameter (default 1) if any, and two sides
    that never name the same (family, route)."""

    bounds: dict[str, int]
    free: str | None
    left: CaseSide
    right: CaseSide


CASES: dict[str, Case] = {
    "ospB-vs-soOdd": Case(
        {"k": 1, "p": 0}, "n",
        CaseSide(lambda k, p, n: IrrepSpec("ospB", m=n + k, n=n, p=p), "branching"),
        CaseSide(lambda k, p, n: IrrepSpec("soOdd", k=k, p=p), "branching"),
    ),
    "ospB-vs-osp1": Case(
        {"k": 1, "p": 0}, "m",
        CaseSide(lambda k, p, m: IrrepSpec("ospB", m=m, n=m + k, p=p), "branching"),
        CaseSide(lambda k, p, m: IrrepSpec("osp1", n=k, p=p), "closed", at_neg_t=True),
    ),
    "ospD-vs-soEven": Case(
        {"k": 2, "p": 0}, "n",
        CaseSide(lambda k, p, n: IrrepSpec("ospD", m=n + k, n=n, p=p), "branching"),
        CaseSide(lambda k, p, n: IrrepSpec("soEven", k=k, p=p, chirality=_CHIRALITY[k % 2]),
                 "branching"),
    ),
    "ospD-vs-sp": Case(
        {"k": 1, "p": 0}, "m",
        CaseSide(lambda k, p, m: IrrepSpec("ospD", m=m, n=m + k, p=p), "branching"),
        CaseSide(lambda k, p, m: IrrepSpec("sp", k=k, p=p), "branching", at_neg_t=True),
    ),
    "d21-vs-so2": Case(
        {"p": 1}, None,
        CaseSide(lambda p: IrrepSpec("d21", p=p), "branching"),
        CaseSide(lambda p: IrrepSpec("d21", p=p), "closed"),
    ),
}


def verify_correspondence(
    case: str, *, order: int = DEFAULT_ORDER, **params: int | None
) -> CorrespondenceReport:
    """Compute both sides of one superdimension correspondence and compare
    them coefficient by coefficient through the given order.

    The case row is the only list of its parameters; one passed as None
    is not given.  The free parameter (n for a wide odd algebra, m for a
    tall one) defaults to 1 and must be >= 0; the identity asserts
    independence of it.  `_check_params` checks the parameters and order,
    so a missing one, one below its bound or not an int, and one the case
    does not use raise ValueError.
    """
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}; choose from {', '.join(CASES)}")
    row = CASES[case]
    rules = dict(row.bounds)
    if row.free:
        rules[row.free] = 0
        if params.get(row.free) is None:
            params[row.free] = 1
    _check_params("case", case, {**rules, "order": 0}, {**params, "order": order})
    params = {name: params[name] for name in rules}
    return CorrespondenceReport(case, row.left.compute(params, order), row.right.compute(params, order))


# -- randomized product-expansion check --------------------------------------


@dataclass(frozen=True)
class CumminsKingReport:
    m: int
    n: int
    order: int
    trials: int
    seed: int
    failed_trial: int | None = None
    first_divergence: int | None = None

    @property
    def match(self) -> bool:
        return self.failed_trial is None

    def to_json_dict(self) -> dict:
        return {**asdict(self), "verdict": "match" if self.match else "mismatch"}


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


def _ck_schur_side(xs: Sequence[Fraction], ys: Sequence[Fraction], order: int) -> TruncatedSeries:
    """Sum over even-multiplicity partitions beta of s_beta(x|y) u^|beta|;
    homogeneity places each term at the power equal to its weight."""
    coeffs = [Fraction(0)] * (order + 1)
    for beta in enum_B(order):
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
    _check_params("function", "cummins_king_check",
                  {"m": 0, "n": 0, "order": 0, "trials": 1, "seed": -inf},
                  {"m": m, "n": n, "order": order, "trials": trials, "seed": seed})
    rng = random.Random(seed)
    for trial in range(trials):
        xs = [_random_nonzero_fraction(rng) for _ in range(m)]
        ys = [_random_nonzero_fraction(rng) for _ in range(n)]
        lhs = _ck_product_side(xs, ys, order)
        rhs = _ck_schur_side(xs, ys, order)
        div = lhs.first_divergence(rhs)
        if div is not None:
            return CumminsKingReport(m, n, order, trials, seed, trial, div)
    return CumminsKingReport(m, n, order, trials, seed)
