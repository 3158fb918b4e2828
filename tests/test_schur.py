import random
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import prod

import pytest

from ospdim.partitions import FrobeniusForm, Partition, enum_partitions, subpartitions
from ospdim.schur import (
    dim_gl_frobenius,
    dim_gl_hook,
    dim_gl_weyl,
    lr_coefficient,
    lr_expansion,
    schur_eval,
    sdim_gl,
    super_schur_eval,
    super_schur_series,
    weyl_table,
    _WeylTable,
)


def ssyt_fillings(lam, n):
    """All semistandard fillings of lam with entries in 1..n, brute force."""
    rows = lam.parts
    if not rows:
        yield ()
        return

    def fill(i, j, current, above):
        if i == len(rows):
            yield tuple(tuple(r) for r in current)
            return
        lo = 1
        if j > 0:
            lo = max(lo, current[i][j - 1])
        if above and j < len(above):
            lo = max(lo, above[j] + 1)
        for v in range(lo, n + 1):
            current[i].append(v)
            nj = j + 1
            if nj == rows[i]:
                yield from fill(i + 1, 0, current, current[i])
            else:
                yield from fill(i, nj, current, above)
            current[i].pop()

    yield from fill(0, 0, [[] for _ in rows], None)


def ssyt_count(lam, n):
    return sum(1 for _ in ssyt_fillings(lam, n))


def schur_brute(lam, xs):
    """Schur polynomial as the monomial sum over semistandard fillings."""
    total = Fraction(0)
    for filling in ssyt_fillings(lam, len(xs)):
        term = Fraction(1)
        for row in filling:
            for v in row:
                term *= xs[v - 1]
        total += term
    return total


def lr_super_schur(lam, xs, ys):
    """s_lam(x | y) as the Littlewood-Richardson sum over mu, nu of
    c^lam_{mu,nu} s_mu(x) s_{nu'}(y), each factor a tableau sum: the
    reference the determinant is checked against, sharing no code with it."""
    total = Fraction(0)
    for mu in subpartitions(lam, max_len=len(xs)):
        sx = schur_brute(mu, xs)
        if sx:
            for nu_parts, c in lr_expansion(lam, mu).items():
                total += c * sx * schur_brute(Partition(nu_parts).conjugate(), ys)
    return total


def h_brute(k, xs, ys):
    """h_k(x | y) = sum_i h_i(x) e_{k-i}(y), each factor a monomial sum; with
    the two sides swapped it is e_k(x | y)."""
    return sum(
        sum(map(prod, combinations_with_replacement(xs, i)), Fraction(0))
        * sum(map(prod, combinations(ys, k - i)), Fraction(0))
        for i in range(k + 1)
    )


def det_brute(mat):
    """Determinant over the Fractions by Gaussian elimination."""
    mat = [[Fraction(v) for v in row] for row in mat]
    det = Fraction(1)
    for k in range(len(mat)):
        pivot = next((r for r in range(k, len(mat)) if mat[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            mat[k], mat[pivot] = mat[pivot], mat[k]
            det = -det
        det *= mat[k][k]
        for r in range(k + 1, len(mat)):
            f = mat[r][k] / mat[k][k]
            for c in range(k, len(mat)):
                mat[r][c] -= f * mat[k][c]
    return det


def jacobi_trudi(row, parts):
    """det(row[parts_i - i + j]), row[k] = 0 for k < 0; 1 for no parts."""
    ell = len(parts)
    return det_brute(
        [[row[k] if k >= 0 else 0 for k in range(p - i, p - i + ell)] for i, p in enumerate(parts)]
    )


# a few values, 0 and a pair x = -y among them, so a small draw repeats one
POOL = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-5, 2)]


def pool_point(rng, count):
    return [rng.choice(POOL) for _ in range(count)]


def random_point(rng, count):
    """count seeded rational coordinates, about one in four of them 0."""
    return [
        Fraction(0) if rng.random() < 0.25 else Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        for _ in range(count)
    ]


class TestGlDimensions:
    def test_printed_values(self):
        lam = Partition([5, 4, 4, 2])
        assert dim_gl_weyl(5, lam) == 1701
        assert dim_gl_hook(5, lam) == 1701
        assert dim_gl_frobenius(5, lam.frobenius()) == 1701
        mu = Partition([2, 1])
        assert dim_gl_weyl(3, mu) == dim_gl_hook(3, mu) == 8
        assert dim_gl_frobenius(3, mu.frobenius()) == 8

    def test_counts_tableaux(self):
        for lam in enum_partitions(6):
            for n in range(1, 5):
                assert dim_gl_weyl(n, lam) == ssyt_count(lam, n), (lam, n)

    def test_three_way_agreement_exhaustive(self):
        for lam in enum_partitions(16):
            form = lam.frobenius()
            for n in range(1, 7):
                w = dim_gl_weyl(n, lam)
                assert w == dim_gl_hook(n, lam), (lam, n)
                assert w == dim_gl_frobenius(n, form), (lam, n)

    def test_three_way_agreement_at_a_million(self):
        # each (n + a_k)! / (n - b_k - 1)! is a short product, never two factorials of n
        n = 10**6
        for lam in enum_partitions(4):
            w = dim_gl_weyl(n, lam)
            assert w == dim_gl_hook(n, lam) == dim_gl_frobenius(n, lam.frobenius()), lam
        assert dim_gl_weyl(n, Partition([2, 1])) == n * (n * n - 1) // 3

    def test_too_many_rows_gives_zero(self):
        lam = Partition([2, 1, 1, 1])
        assert dim_gl_weyl(3, lam) == 0
        assert dim_gl_hook(3, lam) == 0
        assert dim_gl_frobenius(3, lam.frobenius()) == 0

    def test_single_variable(self):
        for k in range(6):
            assert dim_gl_weyl(1, Partition([k] if k else [])) == 1

    def test_rejects_nonpositive_n(self):
        for fn in (dim_gl_weyl, dim_gl_hook):
            with pytest.raises(ValueError):
                fn(0, Partition([1]))
        with pytest.raises(ValueError):
            dim_gl_frobenius(-1, FrobeniusForm([0], [0]))

    def test_rejects_a_rank_that_is_not_an_int(self):
        # a float rank once gave a float dimension, or an AssertionError
        for n in (2.0, 2.5, True):
            for fn in (dim_gl_weyl, dim_gl_hook):
                with pytest.raises(ValueError, match="positive int"):
                    fn(n, Partition([1]))
            with pytest.raises(ValueError, match="positive int"):
                dim_gl_frobenius(n, FrobeniusForm([0], [0]))

    def test_rectangular_and_column(self):
        assert dim_gl_weyl(4, Partition([1, 1, 1, 1])) == 1  # determinant rep
        assert dim_gl_weyl(4, Partition([1, 1])) == 6  # wedge square
        assert dim_gl_weyl(2, Partition([3])) == 4  # symmetric cube


class TestSuperdimensions:
    def test_branches(self):
        assert sdim_gl(3, 1, Partition([2, 1])) == 2
        assert sdim_gl(1, 3, Partition([2, 1])) == -2
        assert sdim_gl(4, 1, Partition([2, 2])) == dim_gl_weyl(3, Partition([2, 2]))
        assert sdim_gl(1, 4, Partition([3])) == -dim_gl_weyl(3, Partition([1, 1, 1]))

    def test_equal_ranks(self):
        assert sdim_gl(2, 2, Partition()) == 1
        assert sdim_gl(2, 2, Partition([1])) == 0
        assert sdim_gl(3, 3, Partition([4, 2])) == 0

    def test_conjugation_duality(self):
        # swapping the two sides conjugates the shape, up to the weight sign
        rng = random.Random(13)
        lams = list(enum_partitions(9))
        for _ in range(300):
            lam = rng.choice(lams)
            m, n = rng.randint(0, 4), rng.randint(0, 4)
            sign = (-1) ** lam.weight
            assert sdim_gl(m, n, lam) == sign * sdim_gl(n, m, lam.conjugate())

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sdim_gl(-1, 2, Partition())

    def test_rejects_a_rank_that_is_not_an_int(self):
        for m, n in [(True, 0), (0, False), (2.0, 1), (1, 1.5)]:
            with pytest.raises(ValueError, match="non-negative ints"):
                sdim_gl(m, n, Partition([1]))


class TestLittlewoodRichardson:
    def test_small_examples(self):
        c = lr_coefficient
        assert c(Partition([2, 1]), Partition([1]), Partition([1, 1])) == 1
        assert c(Partition([2, 1]), Partition([1]), Partition([2])) == 1
        assert c(Partition([2, 2]), Partition([1]), Partition([2, 1])) == 1
        assert c(Partition([2, 2]), Partition([1]), Partition([1, 1, 1])) == 0
        # the classic multiplicity-2 coefficient in s_{21} * s_{21}
        assert c(Partition([3, 2, 1]), Partition([2, 1]), Partition([2, 1])) == 2

    def test_trivial_cases(self):
        lam = Partition([3, 2])
        assert lr_coefficient(lam, lam, Partition()) == 1
        assert lr_coefficient(lam, Partition(), lam) == 1
        assert lr_coefficient(lam, Partition([4]), Partition([1])) == 0  # not contained
        assert lr_coefficient(lam, Partition([1]), Partition([1])) == 0  # weight mismatch

    def test_expansion_weights(self):
        outer, inner = Partition([4, 3, 1]), Partition([2, 1])
        exp = lr_expansion(outer, inner)
        assert exp  # non-empty
        for nu, mult in exp.items():
            assert sum(nu) == outer.weight - inner.weight
            assert mult > 0

    def test_symmetry_in_the_pair(self):
        # c^lam_{mu,nu} == c^lam_{nu,mu} for every split of every lam
        for lam in enum_partitions(10):
            for mu in subpartitions(lam):
                exp = lr_expansion(lam, mu)
                for nu_parts, mult in exp.items():
                    nu = Partition(nu_parts)
                    assert lr_expansion(lam, nu).get(mu.parts, 0) == mult, (lam, mu, nu)

    def test_pieri_rule(self):
        # adding a horizontal k-strip: coefficient 1 exactly on strip extensions
        for mu in enum_partitions(8):
            for k in range(1, 5):
                strips = 0
                for lam in enum_partitions(
                    mu.weight + k, max_part=mu[0] + k, max_len=len(mu) + 1
                ):
                    if lam.weight != mu.weight + k or not lam.contains(mu):
                        continue
                    conj_ok = all(
                        lam.conjugate()[i] - mu.conjugate()[i] <= 1
                        for i in range(lam[0])
                    )
                    got = lr_coefficient(lam, mu, Partition([k]))
                    if conj_ok:
                        assert got == 1, (lam, mu, k)
                        strips += 1
                    else:
                        assert got == 0, (lam, mu, k)
                assert strips >= 1

    def test_product_evaluation_oracle(self):
        # sum_lam c^lam_{mu,nu} s_lam(x) must reproduce s_mu(x) s_nu(x)
        rng = random.Random(20260819)
        smalls = [lam for lam in enum_partitions(5)]
        for _ in range(60):
            mu = rng.choice(smalls)
            nu = rng.choice(smalls)
            nvars = rng.randint(1, 4)
            xs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(nvars)]
            direct = schur_eval(mu, xs) * schur_eval(nu, xs)
            total = Fraction(0)
            for lam in enum_partitions(
                mu.weight + nu.weight, max_part=mu[0] + nu[0], max_len=len(mu) + len(nu)
            ):
                if lam.weight != mu.weight + nu.weight:
                    continue
                c = lr_coefficient(lam, mu, nu)
                if c:
                    total += c * schur_eval(lam, xs)
            assert total == direct, (mu, nu, xs)

    def test_empty_skew(self):
        assert dict(lr_expansion(Partition([2, 1]), Partition([2, 1]))) == {(): 1}


class TestSchurEvaluation:
    def test_empty_partition(self):
        assert schur_eval(Partition(), []) == 1
        assert schur_eval(Partition(), [Fraction(5)]) == 1

    def test_too_few_variables(self):
        assert schur_eval(Partition([1, 1]), [Fraction(2)]) == 0

    def test_principal_specialization_is_dimension(self):
        rng = random.Random(17)
        lams = list(enum_partitions(8))
        for _ in range(120):
            lam = rng.choice(lams)
            n = rng.randint(1, 5)
            assert schur_eval(lam, [1] * n) == dim_gl_weyl(n, lam)

    def test_repeated_coordinates_are_fine(self):
        # the bialternant form degenerates here; the determinant route must not
        x = [Fraction(2, 3), Fraction(2, 3), Fraction(2, 3)]
        assert schur_eval(Partition([2, 1]), x) == 8 * Fraction(2, 3) ** 3

    def test_matches_tableau_sum(self):
        rng = random.Random(23)
        for lam in enum_partitions(5):
            for n in range(1, 4):
                xs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                assert schur_eval(lam, xs) == schur_brute(lam, xs), (lam, xs)

    def test_homogeneity(self):
        lam = Partition([3, 1])
        xs = [Fraction(1, 2), Fraction(3)]
        c = Fraction(5, 7)
        assert schur_eval(lam, [c * x for x in xs]) == c**lam.weight * schur_eval(lam, xs)

    def test_symmetric_under_permutation(self):
        lam = Partition([2, 1])
        xs = [Fraction(1), Fraction(2), Fraction(3)]
        vals = {schur_eval(lam, perm) for perm in [(xs[0], xs[1], xs[2]), (xs[2], xs[0], xs[1]), (xs[1], xs[2], xs[0])]}
        assert len(vals) == 1


class TestSuperSchur:
    def test_one_one_formula(self):
        # m = n = 1: s_(1,1)(x|y) = x y + y^2
        x, y = Fraction(2, 5), Fraction(-3, 7)
        got = super_schur_eval(Partition([1, 1]), [x], [y])
        assert got == x * y + y**2

    def test_hook_condition(self):
        assert super_schur_eval(Partition([2, 2]), [Fraction(1)], [Fraction(1)]) == 0
        assert super_schur_eval(Partition([3, 3, 1]), [Fraction(1)] * 2, [Fraction(1)]) != 0

    def test_reduces_to_schur(self):
        lam = Partition([2, 1])
        xs = [Fraction(1, 2), Fraction(2)]
        assert super_schur_eval(lam, xs, []) == schur_eval(lam, xs)
        # with no even coordinates s_lam(() | y) = s_lam'(y), here by tableaux
        ys = [Fraction(3), Fraction(-1, 3), Fraction(5, 2)]
        for lam in enum_partitions(6):
            assert super_schur_eval(lam, [], ys) == schur_brute(lam.conjugate(), ys), lam

    def test_cancellation_property(self):
        # appending x=t, y=-t changes nothing: supersymmetry of the pair
        x1, y1 = Fraction(3, 2), Fraction(-2, 7)
        for lam in enum_partitions(8):
            base = super_schur_eval(lam, [x1], [y1])
            for t in (Fraction(1), Fraction(2), Fraction(-1, 2), Fraction(5, 3)):
                got = super_schur_eval(lam, [x1, t], [y1, -t])
                assert got == base, (lam, t)

    def test_superdimension_specialization(self):
        # all coordinates 1 on the even side, -1 on the odd side
        for lam in enum_partitions(10):
            for m in range(4):
                for n in range(4):
                    got = super_schur_eval(lam, [Fraction(1)] * m, [Fraction(-1)] * n)
                    assert got == sdim_gl(m, n, lam), (lam, m, n)

    def test_determinant_matches_lr_sum(self):
        rng = random.Random(41)
        for lam in enum_partitions(8):
            for m in range(4):
                for n in range(4):
                    xs, ys = random_point(rng, m), random_point(rng, n)
                    got = super_schur_eval(lam, xs, ys)
                    assert got == lr_super_schur(lam, xs, ys), (lam, xs, ys)

    @pytest.mark.parametrize("bad", [0.1, True, "1/2"])
    def test_refuses_an_inexact_coordinate(self, bad):
        # Fraction() would take each of these: 0.1 as its binary value, True
        # as 1 and "1/2" as a half
        for xs, ys in (([bad], []), ([1], [bad])):
            with pytest.raises(ValueError, match="coordinates must be ints or Fractions"):
                super_schur_eval(Partition([1]), xs, ys)
            with pytest.raises(ValueError, match="coordinates must be ints or Fractions"):
                super_schur_series([Partition([1])], xs, ys, 1)
        with pytest.raises(ValueError, match="coordinates must be ints or Fractions"):
            schur_eval(Partition([1]), [Fraction(1, 2), bad])

    def test_zero_first_pivot(self):
        # h_1(1, 2 | -3) = 0, so the elimination must swap rows
        assert super_schur_eval(Partition([1, 1]), [1, 2], [-3]) == 2

    def test_properties(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        shapes = st.lists(st.integers(0, 3), max_size=4).map(
            lambda parts: Partition(sorted(parts, reverse=True))
        )
        coords = st.fractions(min_value=-5, max_value=5, max_denominator=6)

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(
            shapes, st.lists(coords, max_size=3), st.lists(coords, max_size=3), coords
        )
        def check(lam, xs, ys, w):
            got = super_schur_eval(lam, xs, ys)
            assert got == lr_super_schur(lam, xs, ys)
            assert super_schur_eval(lam, [*xs, w], [*ys, -w]) == got

        check()


class TestSuperSchurSeries:
    def test_sums_each_shapes_value_by_weight(self):
        rng = random.Random(43)
        for m in range(4):
            for n in range(4):
                for _ in range(2):
                    xs, ys = pool_point(rng, m), pool_point(rng, n)
                    want = [Fraction(0)] * 11
                    for lam in enum_partitions(8):
                        val = super_schur_eval(lam, xs, ys)
                        assert val == lr_super_schur(lam, xs, ys), (lam, xs, ys)
                        want[lam.weight] += val
                    got = super_schur_series(enum_partitions(8), xs, ys, 10)
                    assert got.order == 10
                    assert got.coeffs == tuple(want), (xs, ys)

    def test_both_determinant_forms_agree(self):
        # h on the rows and e on the columns: each shape takes one, and the
        # other is checked here
        rng = random.Random(47)
        for m in range(4):
            for n in range(4):
                xs, ys = pool_point(rng, m), pool_point(rng, n)
                h = [h_brute(k, xs, ys) for k in range(9)]
                e = [h_brute(k, ys, xs) for k in range(9)]
                for lam in enum_partitions(8):
                    by_rows = jacobi_trudi(h, lam.parts)
                    by_columns = jacobi_trudi(e, lam.conjugate().parts)
                    assert by_rows == by_columns == super_schur_eval(lam, xs, ys), (lam, xs, ys)

    def test_no_shapes_and_the_empty_shape(self):
        assert super_schur_series([], [Fraction(1, 2)], [], 3).coeffs == (0, 0, 0, 0)
        assert super_schur_series([Partition()] * 2, [], [], 0).coeffs == (2,)

    def test_refuses_a_shape_heavier_than_the_order(self):
        with pytest.raises(ValueError, match=r"shape \(2,2\) is heavier than the order 3"):
            super_schur_series([Partition([1]), Partition([2, 2])], [1], [], 3)

    @pytest.mark.parametrize("order", [-1, True, 1.5, None, "3"])
    def test_refuses_a_bad_order(self, order):
        with pytest.raises(ValueError, match="order must be an int >= 0"):
            super_schur_series([], [1], [], order)


@pytest.mark.parametrize(
    "call",
    [
        lambda lam: super_schur_eval(lam, [1, 1, 1], []),
        lambda lam: super_schur_series([Partition([1]), lam], [1, 1, 1], [], 3),
        lambda lam: schur_eval(lam, [1, 1, 1]),
        lambda lam: sdim_gl(2, 1, lam),
        lambda lam: dim_gl_weyl(3, lam),
        lambda lam: dim_gl_hook(3, lam),
    ],
    ids=["super_schur_eval", "super_schur_series", "schur_eval", "sdim_gl", "dim_gl_weyl", "dim_gl_hook"],
)
@pytest.mark.parametrize("lam", [(2, 1), [2, 1], None])
def test_lam_must_be_a_partition(call, lam):
    with pytest.raises(ValueError, match="lam must be a Partition"):
        call(lam)


@pytest.mark.parametrize(
    "call",
    [
        lambda: dim_gl_frobenius(3, ((1,), (0,))),
        lambda: lr_expansion((2, 1), (1,)),
        lambda: lr_expansion(Partition([2, 1]), (1,)),
        lambda: lr_coefficient((2, 1), (1,), (1, 1)),
        lambda: lr_coefficient(Partition([2, 1]), Partition([1]), (1, 1)),
        lambda: subpartitions((2, 1)),
    ],
    ids=["dim_gl_frobenius", "lr_expansion", "lr_expansion_inner", "lr_coefficient",
         "lr_coefficient_content", "subpartitions"],
)
def test_tuple_arguments_are_refused(call):
    # raised on the call, not an AttributeError from inside
    with pytest.raises(ValueError, match="must be a (Partition|FrobeniusForm)"):
        call()


def gl_dim(n, lam):
    """The gl(n) dimension by hook-content and by Frobenius coordinates,
    which must agree; gl(0) has only the empty shape, of dimension 1."""
    if n == 0:
        return 1 if lam == () else 0
    hook = dim_gl_hook(n, lam)
    assert hook == dim_gl_frobenius(n, lam.frobenius()), (n, lam)
    return hook


class TestWeylTable:
    def fresh_table(self, n):
        weyl_table.cache_clear()
        return weyl_table(n)

    @pytest.mark.parametrize("n", range(6))
    def test_fill_order_does_not_matter(self, n):
        # longest first asks for shapes before their parents; weight-ascending
        # order finds every parent's row in the table already
        shapes = list(enum_partitions(10))
        longest_first = self.fresh_table(n)
        got = {lam: longest_first.dim(lam.parts) for lam in sorted(shapes, key=len, reverse=True)}
        parent_first = self.fresh_table(n)
        for lam in shapes:
            assert parent_first.dim(lam.parts) == got[lam], (n, lam)
            if n:
                assert got[lam] == dim_gl_hook(n, lam), (n, lam)
            else:
                assert got[lam] == (1 if lam == () else 0), lam

    def test_rows_match_hook_and_frobenius(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        shapes = st.sampled_from(list(enum_partitions(12)))

        @hypothesis.settings(max_examples=80, deadline=None)
        @hypothesis.given(
            st.integers(0, 8),
            st.lists(shapes, min_size=1, max_size=10),
            st.lists(st.integers(0, 12), max_size=4),
        )
        def check(n, asks, steps):
            # shapes asked in a drawn order, some longer than n rows
            asked = _WeylTable(n)
            for lam in asks:
                assert asked.dim(lam.parts) == gl_dim(n, lam), (n, lam)
            # every row the asks left behind, entry by entry, and filled at
            # once on a fresh table
            at_once = _WeylTable(n)
            for parent, row in asked.items():
                for c, dim in enumerate(row):
                    assert dim == gl_dim(n, Partition(parent + (c,))), (n, parent, c)
                assert at_once.row(parent, len(row) - 1)[: len(row)] == row, (n, parent)
            # one row, any length of parent, extended in several steps
            parent = asks[0].parts
            cap = parent[-1] if parent else 12
            stepped = _WeylTable(n)
            for top in sorted(min(s, cap) for s in steps):
                assert len(stepped.row(parent, top)) > top
            row = stepped.row(parent, cap)
            assert row == _WeylTable(n).row(parent, cap), (n, parent)
            assert row == [gl_dim(n, Partition(parent + (c,))) for c in range(cap + 1)]

        check()

    def test_long_shapes_never_recurse(self):
        n = sys.getrecursionlimit() + 100
        assert dim_gl_weyl(n, Partition([1] * n)) == 1
        assert sdim_gl(0, n, Partition([n])) == (-1) ** n

    @pytest.mark.parametrize("n", [1.5, 1.0, True, False, -1, "1", None])
    def test_refuses_an_n_that_is_not_an_int_at_least_zero(self, n):
        weyl_table.cache_clear()
        # an int table equal to a refused n is held, so a bool or a float
        # must not read it from the cache
        held = weyl_table(1), weyl_table(0)
        with pytest.raises(ValueError, match="n must be an int >= 0"):
            weyl_table(n)
        assert weyl_table.cache_info().currsize == len(held)
        # once failed from inside a row with an AssertionError
        with pytest.raises(ValueError, match="n must be an int >= 0"):
            weyl_table(n).dim((1,))
