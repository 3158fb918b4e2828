"""Integer partitions, Frobenius coordinates and the constrained enumerators
used by the character sums.

A partition is stored as a weakly decreasing tuple of positive parts; trailing
zeros are stripped on construction, so the zero partition is the empty tuple.
A part or Frobenius coordinate must be an int >= 0, as every bound must:
`series._check_int` refuses a float, string, bool or negative value with
ValueError "{name} must be an int >= 0, got {value!r}" rather than rounding
or casting it.

The non-recursive depth-first walker `_preorder` walks the tree in which a
partition's children append one part no larger than its last.  Sibling batches
are the only stream it gives: a batch `(parent, weight, cs)` is the children
parent + (c,) for c in the range cs, largest first, each of weight weight + c;
a last row c = 0 is no row, so the root batch ((), 0, (0,)) stands for the
empty shape.  A node's batch comes as the walk expands it, so every shape
comes after its parent parts[:-1] and within a fixed weight the shapes are
lexicographically descending, but weights interleave and the raw order is
otherwise not promised.  `partition_batches` streams these batches, and the
two other streams are images of its half-weight walk: `evened_batches` gives
the even-part family, each batch doubled, and `doubled_batches` each shape of
the even-multiplicity family, each part repeated, as a one-child batch whose
parent is the shape without its last row.  The two families are each other's
conjugates, as are the shapes with lambda_1 <= q and those with at most q
rows, so a tall sum streams the conjugate family directly and never
conjugates a shape.
`subpartitions` keeps the shapes of lam's bounding box that lam contains.
The signed Frobenius forms (a | a + p) of the osp(1|2n) numerator come from
no batch: `_offset_forms` walks their strictly decreasing arms itself, rank
by rank, and `enum_offset_forms` is its unbounded case.  Only
the public `enum_*` functions promise weight-ascending order: they expand the
batches, sort the shapes stably by weight and wrap each in a `Partition`.
Unbounded constraints are passed as None, never as a magic integer; a bound
that is negative or not an int raises ValueError on the call, not on first
use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .series import _check_int


def _check_partition(lam) -> None:
    """ValueError unless lam is a Partition."""
    if not isinstance(lam, Partition):
        raise ValueError(f"lam must be a Partition, got {lam!r}")


class Partition:
    """An integer partition with 0-padded indexing.

    Indexing is 0-based and returns 0 past the last part, which keeps
    formulas like the Weyl dimension product free of padding noise:

        Partition([5, 4, 4, 2])[1] == 4
        Partition([5, 4, 4, 2])[9] == 0
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(parts)
        for v in parts:
            _check_int("parts", v)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
        self._parts = parts

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def weight(self) -> int:
        """Number of boxes |lambda|."""
        return sum(self._parts)

    def __len__(self) -> int:
        """Number of positive parts (the length of the partition)."""
        return len(self._parts)

    def __getitem__(self, i: int) -> int:
        if i < 0:
            raise IndexError("parts are indexed from 0")
        return self._parts[i] if i < len(self._parts) else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self._parts == other._parts
        if isinstance(other, tuple):
            return self._parts == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"Partition({list(self._parts)})"

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self._parts)) + ")" if self._parts else "(0)"

    def conjugate(self) -> "Partition":
        """Reflect the diagram along the main diagonal: the j-th conjugate
        part (0-based) is the height of column j+1, the number of parts
        larger than j."""
        parts = self._parts
        out = []
        rows = len(parts)
        for j in range(parts[0] if parts else 0):
            while parts[rows - 1] <= j:
                rows -= 1
            out.append(rows)
        return Partition(out)

    def contains(self, other: "Partition") -> bool:
        """Diagram containment: other[i] <= self[i] for every row."""
        return all(other[i] <= self[i] for i in range(len(other)))

    def hook_length(self, i: int, j: int) -> int:
        """Hook length of box (i, j), rows and columns counted from 1.

        h(i,j) = lambda_i + lambda'_j - i - j + 1.  ValueError for a box
        outside the diagram or a coordinate not an int >= 1, a bool included.
        """
        _check_int("i", i, 1)
        _check_int("j", j, 1)
        if j > self[i - 1]:
            raise ValueError(f"box ({i},{j}) lies outside {self!r}")
        conj_j = sum(1 for p in self._parts if p >= j)
        return self._parts[i - 1] + conj_j - i - j + 1

    def frobenius(self) -> "FrobeniusForm":
        """Frobenius coordinates (arm lengths | leg lengths) of the diagram.

        The rank r is the number of diagonal boxes; arm a_k and leg b_k count
        the boxes strictly right of and strictly below diagonal box (k, k).
        """
        conj = self.conjugate()
        arms = []
        legs = []
        k = 0
        while self[k] > k:
            arms.append(self[k] - k - 1)
            legs.append(conj[k] - k - 1)
            k += 1
        return FrobeniusForm(arms, legs)


@dataclass(frozen=True, slots=True)
class FrobeniusForm:
    """Frobenius coordinates (a_1 > ... > a_r | b_1 > ... > b_r), all >= 0.
    Both are stored as tuples, so a form given lists equals and hashes as
    one given tuples."""

    arms: tuple[int, ...]
    legs: tuple[int, ...]

    def __post_init__(self):
        arms, legs = tuple(self.arms), tuple(self.legs)
        for x in arms + legs:
            _check_int("coordinates", x)
        if len(arms) != len(legs):
            raise ValueError("arm and leg sequences must have equal length")
        for seq in (arms, legs):
            if any(x <= y for x, y in zip(seq, seq[1:])):
                raise ValueError(f"coordinates must strictly decrease, got {seq}")
        object.__setattr__(self, "arms", arms)
        object.__setattr__(self, "legs", legs)

    @property
    def rank(self) -> int:
        return len(self.arms)

    @property
    def weight(self) -> int:
        """Number of boxes: each diagonal box carries its arm and leg."""
        return self.rank + sum(self.arms) + sum(self.legs)

    def __str__(self) -> str:
        a = " ".join(map(str, self.arms))
        b = " ".join(map(str, self.legs))
        return f"({a} | {b})"

    def to_partition(self) -> Partition:
        """Rebuild the partition whose diagonal hooks have these coordinates."""
        rows = [self.arms[k] + k + 1 for k in range(self.rank)]
        depth = self.legs[0] + 1 if self.legs else 0
        for i in range(self.rank, depth):
            rows.append(sum(1 for k, b in enumerate(self.legs) if b + k >= i))
        return Partition(rows)


# a sibling batch (parent, weight, cs), as the module docstring describes
Batch = tuple[tuple[int, ...], int, Sequence[int]]
Batches = Iterator[Batch]
ROOT: Batch = ((), 0, (0,))


def _check_bounds(
    nullable: tuple[str, ...] = ("max_part", "max_len", "above"), /, **bounds: int | None
) -> None:
    """ValueError unless each bound is an int >= 0 or, for a name in
    nullable, None."""
    for name, bound in bounds.items():
        if bound is not None or name not in nullable:
            _check_int(name, bound)


def _shapes(batches: Iterable[Batch]) -> Iterator[tuple[tuple[int, ...], int]]:
    """The (parts, weight) of every child of every batch, in batch order."""
    for parent, weight, cs in batches:
        for c in cs:
            yield (parent + (c,) if c else parent), weight + c


def partition_batches(
    max_weight: int, max_part: int | None = None, max_len: int | None = None,
    *, above: int | None = None,
) -> Batches:
    """The shapes with weight <= max_weight, parts[0] <= max_part and
    len(parts) <= max_len as sibling batches: each shape after its parent
    parts[:-1] and, within one weight, lexicographically descending.  With
    above, only the shapes heavier than it, in the same relative order."""
    _check_bounds(max_part=max_part, max_len=max_len, max_weight=max_weight, above=above)
    part_cap = max_weight if max_part is None else max_part
    rows = max_weight if max_len is None else min(max_len, max_weight)
    return _preorder(max_weight, part_cap, rows, -1 if above is None else above)


def _preorder(max_weight: int, part_cap: int, rows: int, above: int) -> Batches:
    """The shapes heavier than above with parts at most part_cap, at most
    rows rows and weight at most max_weight, as sibling batches: ROOT if
    above < 0, then the children of each node as the walk expands it,
    largest first, each batch cut to the children heavier than above and
    left out when none is.

    One cut rule serves fresh and resumed nodes: a node keeps the children
    c > need, need = above - weight clamped at 0; each popped node has the
    child 1, as a pushed node keeps a unit of room.  Only children with
    room to grow are pushed, smallest first, so the largest child's subtree
    is done before its next sibling is expanded.  A child c in row i holds
    at most c in each of its rows - i rows, so one with c * (rows - i) <=
    need is not pushed: a resumed walk skips exactly the subtrees with no
    shape heavier than above.
    """
    if above < 0:
        yield ROOT
    grows = rows and min(part_cap, max_weight) > 0 and min(part_cap * rows, max_weight) > above
    stack = [((), 0)] if grows else []
    pop, push = stack.pop, stack.extend
    while stack:
        parts, weight = pop()
        i = len(parts)
        room = max_weight - weight
        top = parts[-1] if i else part_cap
        if room < top:
            top = room
        grow = top if top < room else room - 1
        # keep the children c > need; push from the least c * (rows - i) > need
        need = above - weight if above > weight else 0
        if top > need:
            yield parts, weight, range(top, need, -1)
        low = need // (rows - i) + 1
        if grow >= low and i + 1 < rows:
            push([(parts + (c,), weight + c) for c in range(low, grow + 1)])


def doubled_batches(
    max_weight: int, max_part: int | None = None, max_len: int | None = None,
    *, above: int | None = None,
) -> Batches:
    """The even-multiplicity family (c1, c1, c2, c2, ...) for every
    (c1, c2, ...) of half the weight and half the length bound, one shape
    per batch: (c1, c1, ..., cj) with the one child cj at weight
    2(c1 + ... + cj) - cj, and ROOT for the empty shape.  With above, only
    the shapes heavier than it: the half walk resumes above above // 2."""
    _check_bounds(max_part=max_part, max_len=max_len, max_weight=max_weight, above=above)
    half_len = None if max_len is None else max_len // 2
    half_above = None if above is None else above // 2
    return _doubled(partition_batches(max_weight // 2, max_part, half_len, above=half_above))


def _doubled(half: Batches) -> Batches:
    for parent, weight, cs in half:
        twice = tuple(chain.from_iterable(zip(parent, parent)))
        for c in cs:
            yield (twice + (c,), 2 * weight + c, (c,)) if c else ROOT


def evened_batches(
    max_weight: int, max_len: int | None = None, *, above: int | None = None
) -> Batches:
    """The even-part family (2 c1, 2 c2, ...) for every (c1, c2, ...) of
    half the weight: the half walk's batches, resumed above above // 2 if
    above is given, each doubled in parent, weight and children, ROOT too."""
    _check_bounds(max_len=max_len, max_weight=max_weight, above=above)
    half = partition_batches(max_weight // 2, None, max_len, above=None if above is None else above // 2)
    return ((tuple([2 * c for c in parent]), 2 * weight, range(2 * cs[0], 2 * cs[-1] - 1, -2))
            for parent, weight, cs in half)


def _by_weight(batches: Batches) -> Iterator[Partition]:
    for parts, _ in sorted(_shapes(batches), key=itemgetter(1)):
        yield Partition(parts)


def enum_partitions(
    max_weight: int, max_part: int | None = None, max_len: int | None = None
) -> Iterator[Partition]:
    """All partitions with |lambda| <= max_weight, lambda_1 <= max_part and
    length <= max_len, weight-ascending then lex-descending."""
    return _by_weight(partition_batches(max_weight, max_part, max_len))


def enum_rectangle(max_part: int, max_len: int) -> Iterator[Partition]:
    """All partitions fitting in a max_len x max_part rectangle.

    The stream is finite with exactly binomial(max_part + max_len, max_len)
    members.  A side that is not an int >= 0, None included, raises
    ValueError, as a refused bound does.
    """
    _check_bounds((), max_part=max_part, max_len=max_len)
    return enum_partitions(max_part * max_len, max_part, max_len)


def enum_B(
    max_weight: int, max_part: int | None = None, max_len: int | None = None
) -> Iterator[Partition]:
    """Partitions in which every part value occurs with even multiplicity:
    the vertical doublings (c_1, c_1, c_2, c_2, ...) of arbitrary partitions
    (c_1, c_2, ...), so all weights are even."""
    return _by_weight(doubled_batches(max_weight, max_part, max_len))


def enum_D(max_weight: int, max_len: int | None = None) -> Iterator[Partition]:
    """Partitions whose parts are all even: the conjugates of the even-
    multiplicity family."""
    return _by_weight(evened_batches(max_weight, max_len))


def enum_offset_forms(n: int, p: int) -> Iterator[tuple[FrobeniusForm, int]]:
    """Signed Frobenius forms (a | a + p) with arms below n - p.

    Yields (form, sign) pairs for every strictly decreasing arm sequence
    n - p - 1 >= a_1 > ... > a_r >= 0, r from 0 to n - p, with sign
    (-1)**(sum(a) + r), in rising rank r: every form of rank r comes before
    any of rank r + 1.  When p >= n the stream is the single pair (empty
    form, +1).  The stream always has exactly 2**max(n - p, 0) members.
    """
    _check_bounds(n=n, p=p)
    return _offset_forms(max(n - p, 0), p)


def _offset_forms(top: int, p: int, degree: int | None = None) -> Iterator[tuple[FrobeniusForm, int]]:
    """The signed forms (a | a + p) with arms top > a_1 > ... > a_r >= 0 and
    2|a| + (p+1)r <= degree, the full degree top * (top + p) if None, in
    rising rank r, each with sign (-1)**(|a| + r).  Each rank is a
    depth-first walk of its own over the arms, largest first: an arm is
    drawn only while the arms below it, at least 0, 1, ..., still fit the
    budget, so every branch ends in a form."""
    if degree is None:
        degree = top * (top + p)
    for r in range(top + 1):
        budget = (degree - (p + 1) * r) // 2
        if budget < r * (r - 1) // 2:
            return
        stack = [((), budget)]
        pop, push = stack.pop, stack.extend
        while stack:
            arms, room = pop()
            rest = r - len(arms)
            if not rest:
                sign = -1 if (budget - room + r) % 2 else 1
                yield FrobeniusForm(arms, tuple(a + p for a in arms)), sign
                continue
            # the next arm a leaves rest - 1 arms below it, at least 0 .. rest - 2
            hi = min((arms[-1] if arms else top) - 1, room - (rest - 1) * (rest - 2) // 2)
            push([(arms + (a,), room - a) for a in range(rest - 1, hi + 1)])


def subpartitions(lam: Partition, max_len: int | None = None) -> Iterator[Partition]:
    """All partitions contained in the diagram of lam, optionally with at
    most max_len parts, each once and in no promised order."""
    _check_partition(lam)
    _check_bounds(max_len=max_len)
    shapes = _shapes(partition_batches(lam.weight, lam[0], len(lam.parts[:max_len])))
    return (Partition(parts) for parts, _ in shapes if all(b <= lam[i] for i, b in enumerate(parts)))
