"""gl(n) dimensions, gl(m|n) superdimensions, Littlewood-Richardson
coefficients and exact Schur polynomial evaluation.

The three gl(n) dimension formulas (Weyl product, hook-content, Frobenius
coordinates) are kept as genuinely separate code paths so they can be played
against each other in tests; none of them is defined in terms of another.
The Weyl product lives in one table per n, `weyl_table(n)`, of rows keyed
by a parent shape: row[c] is the dimension of parent + (c,), each entry
carried from the one before it, and a row is extended when a caller needs
a longer one.  The branching sums ask for the gl(n) dimensions of a
parent's children together, on both sides of a correspondence and many
times over; the hook-content and Frobenius formulas stay uncached.

Schur polynomials are evaluated by one per-point evaluator, which
`super_schur_series` sums over many shapes, graded by weight, and
`super_schur_eval` reads for one shape.  It checks the point (x | y) once,
scales it to integers by the lcm D of its denominators, and builds at most
one h row, sum_k h_k u^k = prod (1 + y_j u) / prod (1 - x_i u), and one e
row, e_k(x | y) = h_k(y | x).  Each shape is then one integer Jacobi-Trudi
determinant, the smaller of det(h_{lam_i-i+j}) on its rows and
det(e_{lam'_i-i+j}) on its columns, as s_lam(x | y) = s_lam'(y | x)
(Macdonald, Symmetric Functions and Hall Polynomials, I.3 and I.5), and
each weight w's sum is divided by D^w once.  Littlewood-Richardson
coefficients come from tableau enumeration, and no evaluation uses them.
A shape that is not a Partition, or a form that is not a FrobeniusForm, is
refused with ValueError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, perm
from typing import Iterable, Mapping, Sequence

# subpartitions stays importable here for bench/layertrace.py
from .partitions import FrobeniusForm, Partition, _check_partition, subpartitions
from .series import TruncatedSeries


class _WeylTable(dict):
    """gl(n) dimensions in rows keyed by a parent shape: row[c] is the
    dimension of parent + (c,), so row[0] is the parent's own.

    Appending row i (0-based) of length c to rows lambda_0..lambda_{i-1}
    multiplies the dimension by C(c + n-1-i, n-1-i) * prod_{a<i} (h_a - c)/h_a
    with h_a = lambda_a + i - a: Weyl's prod_{i<j} (l_i - l_j)/(j - i) over
    l_i = lambda_i + n-1-i, taken one row at a time.  A row carries that
    factor from c - 1 to c, multiplying by (c + n-1-i)/c * prod_{a<i}
    (h_a - c)/(h_a - c + 1).  The hook product in the denominator is the
    numerator's of the entry before, so each new entry computes one hook
    product and reuses the previous one.  Each division is exact, since it
    leaves a dimension, and is checked on every entry.  A parent of n rows
    or more reads zeros: at i = n the factor c + n-1-i is 0 at c = 1, a
    longer parent's row[0] is 0, and top <= parent[-1] keeps divisors >= 1.
    """

    __slots__ = ("n",)

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def row(self, parent: tuple[int, ...], top: int) -> list[int]:
        """The row of parent through c = top at least, top <= parent[-1].
        A missing parent's dimension comes from its longest prefix whose
        row reaches the next part, or from the empty shape's 1; every row
        on the way is extended just far enough and kept, in a loop, so a
        shape longer than the recursion limit works.  A walk in preorder
        carries each parent's row through its children first, so there a
        missing row costs one lookup of its parent's row and one extension."""
        row = self.get(parent)
        if row is not None:
            return row if len(row) > top else self._extend(parent, row[0], top)
        held = len(parent)
        while held:
            row = self.get(parent[: held - 1])
            if row is not None and len(row) > parent[held - 1]:
                break
            held -= 1
        dim = row[parent[held - 1]] if held else 1
        for i in range(held, len(parent)):
            dim = self._extend(parent[:i], dim, parent[i])[parent[i]]
        return self._extend(parent, dim, top)

    def _extend(self, parent: tuple[int, ...], dim: int, top: int) -> list[int]:
        """Carry the row of parent, whose dimension is dim, through c = top."""
        row = self.setdefault(parent, [dim])
        i = len(parent)
        shift = self.n - 1 - i
        hooks = [part + i - a for a, part in enumerate(parent)]
        start = len(row)
        # the hook product of the entry before start
        last = 1
        for h in hooks:
            last *= h - start + 1
        for c in range(start, top + 1):
            prod = 1
            for h in hooks:
                prod *= h - c
            dim, r = divmod(row[-1] * (c + shift) * prod, c * last)
            assert r == 0, f"Weyl row of {parent}, n={self.n} did not divide evenly at {c}"
            row.append(dim)
            last = prod
        return row

    def dim(self, parts: tuple[int, ...]) -> int:
        """The gl(n) dimension of a shape; 0, and nothing stored, for a
        shape longer than n rows."""
        if len(parts) > self.n:
            return 0
        if not parts:
            return 1
        return self.row(parts[:-1], parts[-1])[parts[-1]]


# typed, so a bool or a float equal to a held n misses and is refused
@lru_cache(maxsize=None, typed=True)
def weyl_table(n: int) -> _WeylTable:
    """The process's one table of gl(n) rows, n an int >= 0, shared by every
    caller: `weyl_table(n).row(parent, top)[c]` is the Weyl product of
    parent + (c,), and `weyl_table(n).dim(parts)` that of a shape.  Any
    other n, a bool included, is refused with ValueError and no table is
    kept."""
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be an int >= 0, got {n!r}")
    return _WeylTable(n)


def dim_gl_weyl(n: int, lam: Partition) -> int:
    """Dimension of the gl(n) irrep with highest weight lam, n >= 1, by the
    Weyl product read from the rows of `weyl_table(n)`; a partition longer
    than n rows is not a gl(n) highest weight and gives 0."""
    if type(n) is not int or n <= 0:
        raise ValueError(f"n must be a positive int, got {n!r}")
    _check_partition(lam)
    return weyl_table(n).dim(lam.parts)


def dim_gl_hook(n: int, lam: Partition) -> int:
    """The same dimension as the hook-content product: for every box (i,j)
    a factor (n + j - i) over the box's hook length.

    A content factor vanishes as soon as the diagram has more than n rows,
    so overlong partitions give 0 without a special case.
    """
    if type(n) is not int or n <= 0:
        raise ValueError(f"n must be a positive int, got {n!r}")
    _check_partition(lam)
    num = 1
    den = 1
    for i in range(1, len(lam) + 1):
        for j in range(1, lam[i - 1] + 1):
            num *= n + j - i
            den *= lam.hook_length(i, j)
    q, r = divmod(num, den)
    assert r == 0, f"hook-content product for {lam!r}, n={n} did not divide evenly"
    return q


def dim_gl_frobenius(n: int, form: FrobeniusForm) -> int:
    """The same dimension from Frobenius coordinates (a | b):

        prod_k (n + a_k)! / (n - b_k - 1)!
        * prod_{k<l} (a_k - a_l)(b_k - b_l)
        / ( prod_k a_k! b_k!  *  prod_{k,l} (a_k + b_l + 1) )

    Each (n + a_k)! / (n - b_k - 1)! is the product of its a_k + b_k + 1
    factors n - b_k .. n + a_k, math.perm, never two factorials of n.
    Any leg of length n or more means more than n rows, hence 0.
    """
    if type(n) is not int or n <= 0:
        raise ValueError(f"n must be a positive int, got {n!r}")
    if not isinstance(form, FrobeniusForm):
        raise ValueError(f"form must be a FrobeniusForm, got {form!r}")
    arms, legs = form.arms, form.legs
    if any(b >= n for b in legs):
        return 0
    num = 1
    for a, b in zip(arms, legs):
        num *= perm(n + a, a + b + 1)
    r = form.rank
    for k in range(r):
        for l in range(k + 1, r):
            num *= (arms[k] - arms[l]) * (legs[k] - legs[l])
    den = 1
    for a, b in zip(arms, legs):
        den *= factorial(a) * factorial(b)
    for a in arms:
        for b in legs:
            den *= a + b + 1
    q, rem = divmod(num, den)
    assert rem == 0, f"Frobenius product for {form!r}, n={n} did not divide evenly"
    return q


def sdim_gl(m: int, n: int, lam: Partition) -> int:
    """Superdimension of the covariant gl(m|n) irrep labelled by lam.

    For m = n + k the value is the gl(k) dimension of lam; for n = m + k it
    is (-1)**|lam| times the gl(k) dimension of the conjugate.  Both
    branches vanish outside the (m,n) fat hook, and for m = n every
    non-empty lam gives 0.
    """
    if type(m) is not int or type(n) is not int or m < 0 or n < 0:
        raise ValueError(f"m and n must be non-negative ints, got {m!r} and {n!r}")
    _check_partition(lam)
    if m >= n:
        return weyl_table(m - n).dim(lam.parts)
    sign = -1 if lam.weight % 2 else 1
    return sign * weyl_table(n - m).dim(lam.conjugate().parts)


# -- Littlewood-Richardson coefficients -------------------------------------

def lr_expansion(outer: Partition, inner: Partition) -> Mapping[tuple[int, ...], int]:
    """Multiplicities of every content nu in the skew Schur expansion
    s_{outer/inner} = sum_nu c^{outer}_{inner,nu} s_nu.

    Contents are counted by enumerating Littlewood-Richardson fillings of
    the skew diagram: semistandard, with the reverse reading word (rows read
    right to left, top to bottom) a lattice word.  Filling the boxes in
    reverse reading order lets every constraint be checked incrementally.
    """
    _check_partition(outer)
    _check_partition(inner)
    if not outer.contains(inner):
        return {}

    nrows = len(outer)
    cells = [
        (i, j)
        for i in range(nrows)
        for j in range(outer[i] - 1, inner[i] - 1, -1)
    ]
    grid = [[0] * outer[i] for i in range(nrows)]
    counts = [0] * (nrows + 1)  # counts[v] = copies of value v placed so far
    found: dict[tuple[int, ...], int] = {}

    def fill(pos: int) -> None:
        if pos == len(cells):
            content = counts[1:]
            while content and content[-1] == 0:
                content.pop()
            t = tuple(content)
            found[t] = found.get(t, 0) + 1
            return
        i, j = cells[pos]
        hi = i + 1  # a Littlewood-Richardson filling has entries <= row index
        if j + 1 < outer[i]:
            hi = min(hi, grid[i][j + 1])
        if i > 0 and j < outer[i - 1] and j >= inner[i - 1]:
            lo = grid[i - 1][j] + 1
        else:
            lo = 1
        for v in range(lo, hi + 1):
            if v > 1 and counts[v] >= counts[v - 1]:
                continue  # would break the lattice property
            grid[i][j] = v
            counts[v] += 1
            fill(pos + 1)
            counts[v] -= 1
        grid[i][j] = 0

    fill(0)
    return found


def lr_coefficient(outer: Partition, inner: Partition, content: Partition) -> int:
    """The Littlewood-Richardson coefficient c^{outer}_{inner, content}."""
    for lam in (outer, inner, content):
        _check_partition(lam)
    if not outer.contains(inner):
        return 0
    if inner.weight + content.weight != outer.weight:
        return 0
    return lr_expansion(outer, inner).get(content.parts, 0)


# -- exact Schur evaluation --------------------------------------------------


def _bareiss_det(mat: list[list[int]]) -> int:
    """Determinant of a non-empty integer matrix by fraction-free (Bareiss)
    elimination.  Every division is exact; a zero pivot is swapped with the
    first lower row that is non-zero in its column."""
    n = len(mat)
    sign, prev = 1, 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if mat[r][k]), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        pivot = mat[k][k]
        for i in range(k + 1, n):
            row, lead = mat[i], mat[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * mat[k][j]) // prev
        prev = pivot
    return sign * mat[-1][-1]


def _jt_row(evens: list, odds: list, d: int, top: int) -> list[int]:
    """h_0 .. h_top at the coordinates scaled by d to integers, where
    sum_k h_k u^k = prod_j (1 + d odds_j u) / prod_i (1 - d evens_i u).
    With the two lists swapped it is the e row: e_k(x | y) = h_k(y | x)."""
    h = [1] + [0] * top
    for x in evens:
        a = x.numerator * (d // x.denominator)
        for k in range(1, top + 1):
            h[k] += a * h[k - 1]
    for y in odds:
        b = y.numerator * (d // y.denominator)
        for k in range(top, 0, -1):
            h[k] += b * h[k - 1]
    return h


def super_schur_series(
    shapes: Iterable[Partition], xs: Sequence, ys: Sequence, order: int
) -> TruncatedSeries:
    """The sum of s_lam(x | y) t^|lam| over the shapes, through t^order.

    The point is checked, scaled and given its h and e rows once (see the
    module docstring); each shape then costs one integer determinant of
    size min(lam_1, len(lam)), and a shape outside the (m,n) fat hook,
    lam_{m+1} > n, costs none.  A shape that is not a Partition or is
    heavier than the order, an order that is not an int >= 0, and a
    coordinate that is not an int or a Fraction, a bool included, are a
    ValueError.
    """
    if type(order) is not int or order < 0:
        raise ValueError(f"order must be an int >= 0, got {order!r}")
    sums, d = _jacobi_trudi_sums(shapes, xs, ys, order)
    return TruncatedSeries([Fraction(s, d**w) for w, s in enumerate(sums)], order)


def _jacobi_trudi_sums(
    shapes: Iterable[Partition], xs: Sequence, ys: Sequence, order: int
) -> tuple[list[int], int]:
    """The evaluator of `super_schur_series`: the sum of the shapes'
    determinants at (D x | D y) at each weight 0..order, and D."""
    xs, ys = list(xs), list(ys)
    coords = xs + ys
    for c in coords:
        if type(c) is bool or not isinstance(c, (int, Fraction)):
            raise ValueError(f"coordinates must be ints or Fractions, got {c!r}")
    m, n = len(xs), len(ys)
    sums = [0] * (order + 1)
    # (weight, dual, the parts the determinant is taken on) per shape to evaluate
    dets = []
    tops = [0, 0]
    for lam in shapes:
        _check_partition(lam)
        w = lam.weight
        if w > order:
            raise ValueError(f"shape {lam} is heavier than the order {order}")
        if lam[m] > n:
            continue
        parts = lam.parts
        if not parts:
            sums[0] += 1
            continue
        dual = parts[0] < len(parts)
        if dual:
            # the columns, counted here: sdim_gl conjugates on a path of its own
            parts = [sum(p > j for p in parts) for j in range(parts[0])]
        tops[dual] = max(tops[dual], parts[0] + len(parts) - 1)
        dets.append((w, dual, parts))
    d = lcm(*(c.denominator for c in coords))
    # the h row and the e row, e_k(x | y) = h_k(y | x); a form no shape takes gets none
    rows = (
        _jt_row(xs, ys, d, tops[0]) if tops[0] else None,
        _jt_row(ys, xs, d, tops[1]) if tops[1] else None,
    )
    for w, dual, parts in dets:
        row, ell = rows[dual], len(parts)
        mat = [[row[k] if k >= 0 else 0 for k in range(p - i, p - i + ell)] for i, p in enumerate(parts)]
        sums[w] += _bareiss_det(mat)
    return sums, d


def schur_eval(lam: Partition, xs: Sequence) -> Fraction:
    """Exact value of the Schur polynomial s_lam at the given coordinates:
    s_lam(x | ()), `super_schur_eval` with no odd coordinates; 0 when lam
    is longer than the number of coordinates."""
    return super_schur_eval(lam, xs, ())


def super_schur_eval(lam: Partition, xs: Sequence, ys: Sequence) -> Fraction:
    """Exact value of the supersymmetric Schur polynomial s_lam(x | y), where
    sum_k h_k(x | y) u^k = prod_j (1 + y_j u) / prod_i (1 - x_i u): the
    one-shape case of `super_schur_series`, read from its evaluator as one
    Fraction.  Its determinant is det(h_{lam_i-i+j}), or the dual
    det(e_{lam'_i-i+j}) on the columns of a shape taller than it is wide.

    It stays defined at repeated coordinates, and vanishes unless lam fits
    in the (m,n) fat hook, i.e. lam_{m+1} <= n.  A coordinate that is not an
    int or a Fraction, a bool included, is a ValueError.
    """
    _check_partition(lam)
    w = lam.weight
    sums, d = _jacobi_trudi_sums((lam,), xs, ys, w)
    return Fraction(sums[w], d**w)
