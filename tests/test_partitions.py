import random
from fractions import Fraction
from math import comb

import pytest

import ospdim.characters as characters
import ospdim.partitions as partitions
from ospdim.partitions import (
    FrobeniusForm,
    _offset_forms,
    Partition,
    doubled_batches,
    enum_B,
    enum_D,
    enum_offset_forms,
    enum_partitions,
    enum_rectangle,
    evened_batches,
    partition_batches,
    subpartitions,
)


def random_partition(rng, max_weight=40):
    """A partition with weight at most max_weight, biased toward small ones."""
    n_parts = rng.randint(0, 8)
    parts = sorted((rng.randint(1, max_weight // 8 + 1) for _ in range(n_parts)), reverse=True)
    return Partition(parts)


class TestPartitionBasics:
    def test_normalization(self):
        assert Partition([3, 2, 0, 0]).parts == (3, 2)
        assert Partition([]).parts == ()
        assert Partition().weight == 0
        assert len(Partition([4, 4, 1])) == 3

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Partition([1, 2])
        with pytest.raises(ValueError):
            Partition([2, -1])

    @pytest.mark.parametrize("parts", [[2.5, 1], [2.0, 1], ["3", 1], [3, True], [Fraction(2), 1]])
    def test_rejects_a_part_that_is_not_an_int(self, parts):
        with pytest.raises(ValueError, match="parts must be integers"):
            Partition(parts)

    def test_zero_padded_indexing(self):
        lam = Partition([5, 4, 4, 2])
        assert lam[0] == 5
        assert lam[3] == 2
        assert lam[4] == 0
        assert lam[100] == 0
        with pytest.raises(IndexError):
            lam[-1]

    def test_equality_and_hash(self):
        assert Partition([2, 1]) == Partition((2, 1, 0))
        assert Partition([2, 1]) == (2, 1)
        assert hash(Partition([2, 1])) == hash(Partition([2, 1]))
        assert Partition([2, 1]) != Partition([3])

    def test_containment(self):
        lam = Partition([4, 2, 1])
        assert lam.contains(Partition([2, 2]))
        assert lam.contains(Partition())
        assert not lam.contains(Partition([5]))
        assert not lam.contains(Partition([1, 1, 1, 1]))


class TestConjugate:
    def test_printed_example(self):
        assert Partition([5, 4, 4, 2]).conjugate().parts == (4, 4, 3, 3, 1)

    def test_small_cases(self):
        assert Partition([3, 1]).conjugate().parts == (2, 1, 1)
        assert Partition().conjugate() == Partition()
        assert Partition([1] * 5).conjugate().parts == (5,)

    def test_brute_force_reflection(self):
        # conjugate must agree with literally transposing the box diagram
        for lam in enum_partitions(8):
            boxes = {(i, j) for i, p in enumerate(lam) for j in range(p)}
            reflected = {(j, i) for i, j in boxes}
            heights = [0] * (max((i for i, _ in reflected), default=-1) + 1)
            for i, _ in reflected:
                heights[i] += 1
            assert lam.conjugate() == Partition(sorted(heights, reverse=True))

    def test_involution_random(self):
        rng = random.Random(20260819)
        for _ in range(10000):
            lam = random_partition(rng)
            assert lam.conjugate().conjugate() == lam

    def test_weight_and_first_part_swap(self):
        rng = random.Random(7)
        for _ in range(500):
            lam = random_partition(rng)
            conj = lam.conjugate()
            assert conj.weight == lam.weight
            assert len(conj) == lam[0]
            assert conj[0] == len(lam)


class TestFrobenius:
    def test_printed_example(self):
        form = Partition([5, 4, 4, 2]).frobenius()
        assert form.arms == (4, 2, 1)
        assert form.legs == (3, 2, 0)
        assert form.rank == 3

    def test_round_trip_from_partitions(self):
        for lam in enum_partitions(12):
            form = lam.frobenius()
            assert form.to_partition() == lam
            assert form.weight == lam.weight

    def test_round_trip_from_forms(self):
        rng = random.Random(3)
        for _ in range(300):
            r = rng.randint(0, 4)
            arms = sorted(rng.sample(range(12), r), reverse=True)
            legs = sorted(rng.sample(range(12), r), reverse=True)
            form = FrobeniusForm(arms, legs)
            assert form.to_partition().frobenius() == form

    def test_conjugate_swaps_arms_and_legs(self):
        for lam in enum_partitions(10):
            form = lam.frobenius()
            conj_form = lam.conjugate().frobenius()
            assert conj_form.arms == form.legs
            assert conj_form.legs == form.arms

    def test_rejects_bad_coordinates(self):
        with pytest.raises(ValueError):
            FrobeniusForm([1, 2], [3, 1])  # arms not decreasing
        with pytest.raises(ValueError):
            FrobeniusForm([2, 2], [3, 1])  # not strictly decreasing
        with pytest.raises(ValueError):
            FrobeniusForm([3], [])  # length mismatch
        with pytest.raises(ValueError):
            FrobeniusForm([-1], [0])

    @pytest.mark.parametrize("arms, legs", [([1.5], [0]), ([1], ["0"]), ([True], [0]), ([1.0], [0])])
    def test_rejects_a_coordinate_that_is_not_an_int(self, arms, legs):
        with pytest.raises(ValueError, match="coordinates must be integers"):
            FrobeniusForm(arms, legs)


class TestHookLengths:
    def test_printed_grid(self):
        lam = Partition([5, 4, 4, 2])
        grid = [[lam.hook_length(i, j) for j in range(1, lam[i - 1] + 1)] for i in range(1, 5)]
        assert grid == [[8, 7, 5, 4, 1], [6, 5, 3, 2], [5, 4, 2, 1], [2, 1]]

    def test_corner_box(self):
        lam = Partition([4, 2, 1])
        assert lam.hook_length(1, 1) == lam[0] + len(lam) - 1

    def test_outside_diagram(self):
        lam = Partition([2, 1])
        for i, j in [(1, 3), (2, 2), (3, 1), (0, 1), (1, 0)]:
            with pytest.raises(ValueError):
                lam.hook_length(i, j)

    def test_coordinate_that_is_not_an_int_is_refused(self):
        lam = Partition([2, 1])
        for i, j in [(1, 1.0), (1.0, 1), (True, 1), (1, True), ("1", 1), (None, 1)]:
            with pytest.raises(ValueError):
                lam.hook_length(i, j)

    def test_hooks_sum(self):
        # sum of all hook lengths = sum over boxes of (arm + leg + 1)
        for lam in enum_partitions(9):
            total = sum(
                lam.hook_length(i, j)
                for i in range(1, len(lam) + 1)
                for j in range(1, lam[i - 1] + 1)
            )
            conj = lam.conjugate()
            expected = sum(
                (lam[i - 1] - j) + (conj[j - 1] - i) + 1
                for i in range(1, len(lam) + 1)
                for j in range(1, lam[i - 1] + 1)
            )
            assert total == expected


def is_weight_then_revlex(stream):
    """Weight ascending; within equal weight, lexicographically descending."""
    for a, b in zip(stream, stream[1:]):
        if a.weight < b.weight:
            continue
        if a.weight > b.weight:
            return False
        if a.parts <= b.parts:
            return False
    return True


class TestEnumerators:
    def test_enum_partitions_counts(self):
        counts = [0] * 11
        for lam in enum_partitions(10):
            counts[lam.weight] += 1
        assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]

    def test_enum_partitions_bounds(self):
        for lam in enum_partitions(12, max_part=3, max_len=4):
            assert lam[0] <= 3 and len(lam) <= 4

    def test_rectangle_count_is_binomial(self):
        for p in range(7):
            for k in range(7):
                got = sum(1 for _ in enum_rectangle(p, k))
                assert got == comb(p + k, k), (p, k)

    def test_rectangle_membership(self):
        members = set(enum_rectangle(2, 3))
        assert Partition([2, 2, 2]) in members
        assert Partition([2, 1]) in members
        assert Partition() in members
        assert len(members) == comb(5, 3)

    def test_rectangle_rejects_negative(self):
        with pytest.raises(ValueError):
            list(enum_rectangle(-1, 2))

    def test_rectangle_rejects_a_missing_side(self):
        # a rectangle has two finite sides, so None bounds neither
        with pytest.raises(ValueError, match="max_part must be an int >= 0, got None"):
            enum_rectangle(None, 2)
        with pytest.raises(ValueError, match="max_len must be an int >= 0, got None"):
            enum_rectangle(2, None)

    def test_stream_order(self):
        assert is_weight_then_revlex(list(enum_partitions(9)))
        assert is_weight_then_revlex(list(enum_rectangle(4, 4)))
        assert is_weight_then_revlex(list(enum_B(10)))
        assert is_weight_then_revlex(list(enum_D(10, 3)))

    def test_enum_B_printed_prefix(self):
        got = [q.parts for q in enum_B(6)]
        assert got == [
            (),
            (1, 1),
            (2, 2),
            (1, 1, 1, 1),
            (3, 3),
            (2, 2, 1, 1),
            (1, 1, 1, 1, 1, 1),
        ]

    def test_enum_B_matches_filter(self):
        def all_even_multiplicity(lam):
            return all(lam.parts.count(v) % 2 == 0 for v in set(lam.parts))

        want = [lam for lam in enum_partitions(12) if all_even_multiplicity(lam)]
        got = list(enum_B(12))
        assert got == want

    def test_enum_B_bounds(self):
        for lam in enum_B(14, max_part=2, max_len=4):
            assert lam[0] <= 2 and len(lam) <= 4
        # odd max_len cannot be attained: lengths are even
        lengths = {len(lam) for lam in enum_B(10, max_len=5)}
        assert lengths == {0, 2, 4}

    def test_enum_B_weights_even(self):
        assert all(lam.weight % 2 == 0 for lam in enum_B(15))

    def test_enum_D_printed_prefix(self):
        got = [q.parts for q in enum_D(8, 2)]
        assert got == [(), (2,), (4,), (2, 2), (6,), (4, 2), (8,), (6, 2), (4, 4)]

    def test_enum_D_matches_filter(self):
        want = [
            lam
            for lam in enum_partitions(12, max_len=3)
            if all(p % 2 == 0 for p in lam)
        ]
        assert list(enum_D(12, 3)) == want

    def test_B_and_D_are_conjugate_families(self):
        bs = {lam.conjugate() for lam in enum_B(12)}
        ds = set(enum_D(12))
        assert bs == ds


def reference_walk(max_weight, caps, step=1):
    """The shape-by-shape walk that the sibling batches replaced, kept as the
    order they must expand to: the root, then the children of each node as
    it is expanded, largest first, and a child is expanded when it has a row
    and weight left to grow."""
    out = [((), 0)]
    stack = [((), 0)] if caps and max_weight >= step else []
    while stack:
        parts, weight = stack.pop()
        i = len(parts)
        top = min(parts[-1] if i else caps[0], caps[i], max_weight - weight)
        kids = [(parts + (c,), weight + c) for c in range(step, top + 1, step)]
        out.extend(reversed(kids))
        if i + 1 < len(caps):
            stack.extend(kid for kid in kids if kid[1] + step <= max_weight)
    return out


def reference_doubled(max_weight, max_part, max_len):
    half = max_weight // 2
    cap = half if max_part is None else max_part
    rows = half if max_len is None else min(max_len // 2, half)
    return [(tuple(c for c in mu for _ in range(2)), 2 * w) for mu, w in reference_walk(half, (cap,) * rows)]


def expand(batches):
    """The (parts, weight) of every child of every batch; each batch must
    have children, largest first."""
    out = []
    for parent, weight, cs in batches:
        cs = list(cs)
        assert cs and cs == sorted(cs, reverse=True), (parent, cs)
        out.extend((parent + (c,) if c else parent, weight + c) for c in cs)
    return out


BOUNDS = (None, 0, 1, 2, 4)


class TestBatchStreams:
    @pytest.mark.parametrize("w", range(14))
    def test_plain(self, w):
        for a in BOUNDS:
            for b in BOUNDS:
                cap = w if a is None else a
                rows = w if b is None else min(b, w)
                want = reference_walk(w, (cap,) * rows)
                assert expand(partition_batches(w, a, b)) == want, (w, a, b)

    @pytest.mark.parametrize("w", range(20))
    def test_evened(self, w):
        for b in BOUNDS:
            half = w // 2
            rows = half if b is None else min(b, half)
            want = reference_walk(2 * half, (2 * half,) * rows, 2)
            assert expand(evened_batches(w, b)) == want, (w, b)

    @pytest.mark.parametrize("w", range(20))
    def test_doubled(self, w):
        for a in BOUNDS:
            for b in BOUNDS:
                want = reference_doubled(w, a, b)
                batches = list(doubled_batches(w, a, b))
                assert all(len(cs) == 1 for _, _, cs in batches)
                assert expand(batches) == want, (w, a, b)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", [0, 1, 2, 4])
    def test_head(self, k, p):
        # the so(2k) chirality that sums (p, lambda) over the doubled shapes
        # lambda of at most k - 1 rows, graded by |lambda| alone
        for order in (0, 5, 14):
            want = [((p,) + parts, w) for parts, w in reference_doubled(order, p, k - 1)]
            assert expand(characters._headed_batches(order, p, k - 1)) == want, (k, p, order)

    def test_subpartitions(self):
        for lam in ((), (1,), (3, 1), (5, 4, 4, 2), (6, 3, 1, 1)):
            for max_len in (None, 0, 1, 2, 3):
                want = [parts for parts, _ in reference_walk(sum(lam), lam[:max_len])]
                assert [mu.parts for mu in subpartitions(Partition(lam), max_len)] == want


class TestOffsetForms:
    def test_count_is_power_of_two(self):
        for n in range(9):
            for p in range(9):
                got = sum(1 for _ in enum_offset_forms(n, p))
                assert got == 2 ** max(n - p, 0), (n, p)

    def test_degenerate_stream(self):
        forms = list(enum_offset_forms(2, 5))
        assert forms == [(FrobeniusForm([], []), 1)]

    def test_structure(self):
        for n, p in [(3, 0), (4, 1), (5, 2), (6, 3)]:
            for form, sign in enum_offset_forms(n, p):
                assert sign in (-1, 1)
                assert sign == (-1) ** (sum(form.arms) + form.rank)
                assert all(b == a + p for a, b in zip(form.arms, form.legs))
                assert all(a <= n - p - 1 for a in form.arms)
                # the partition has rank many rows above the diagonal block
                lam = form.to_partition()
                assert lam.weight == 2 * sum(form.arms) + (p + 1) * form.rank

    def test_example_n3_p2(self):
        got = [(f.arms, sign) for f, sign in enum_offset_forms(3, 2)]
        assert got == [((), 1), ((0,), -1)]

    def test_rejects_negative(self):
        # raised on the call itself, before the stream is consumed
        for n, p in [(-1, 0), (2, -3), (None, 0)]:
            with pytest.raises(ValueError):
                enum_offset_forms(n, p)

    def test_clipped_walk_is_the_unbounded_walk_cut_at_the_degree(self):
        # every degree up to two past the full degree top * (top + p), so
        # the cut runs from the empty form alone to the whole stream
        for top in range(10):
            for p in range(9):
                full = list(_offset_forms(top, p))
                ranks = [form.rank for form, _ in full]
                assert ranks == sorted(ranks), (top, p)
                weights = [2 * sum(form.arms) + (p + 1) * form.rank for form, _ in full]
                for degree in range(top * (top + p) + 3):
                    want = [pair for pair, w in zip(full, weights) if w <= degree]
                    assert list(_offset_forms(top, p, degree)) == want, (top, p, degree)

    def test_walks_no_partition_walker(self, monkeypatch):
        entered = []

        def counted(name):
            original = getattr(partitions, name)

            def wrapper(*args, **kwargs):
                entered.append(name)
                return original(*args, **kwargs)

            return wrapper

        for name in ("_preorder", "partition_batches", "_shapes"):
            monkeypatch.setattr(partitions, name, counted(name))
        for top in range(7):
            for p in range(4):
                assert sum(1 for _ in _offset_forms(top, p)) == 2**top
                list(_offset_forms(top, p, top + p))
        assert sum(1 for _ in enum_offset_forms(6, 1)) == 32
        assert entered == []


class TestSubpartitions:
    def test_box_count(self):
        got = list(subpartitions(Partition([2, 2])))
        assert len(got) == comb(4, 2)
        assert len(set(got)) == len(got)

    def test_all_contained(self):
        lam = Partition([4, 3, 1])
        subs = list(subpartitions(lam))
        assert all(lam.contains(mu) for mu in subs)
        assert Partition() in subs and lam in subs
        # against brute force over the bounding rectangle
        brute = [mu for mu in enum_rectangle(4, 3) if lam.contains(mu)]
        assert set(subs) == set(brute)

    def test_max_len(self):
        lam = Partition([3, 2, 2, 1])
        assert all(len(mu) <= 2 for mu in subpartitions(lam, max_len=2))

    def test_every_contained_partition_once(self):
        for lam in enum_partitions(8):
            for max_len in (None, 0, 1, 2):
                got = [mu.parts for mu in subpartitions(lam, max_len)]
                want = {mu.parts for mu in enum_partitions(8, None, max_len) if lam.contains(mu)}
                assert len(got) == len(set(got)), (lam, max_len)
                assert set(got) == want, (lam, max_len)

    def test_negative_max_len_rejected_on_the_call(self):
        with pytest.raises(ValueError):
            subpartitions(Partition([2, 1]), -1)

    def test_still_importable_from_schur(self):
        from ospdim import schur

        assert schur.subpartitions is subpartitions


class TestNegativeBounds:
    def test_every_enumerator_rejects_a_negative_bound(self):
        calls = [
            lambda: enum_partitions(-1),
            lambda: enum_partitions(3, -1),
            lambda: enum_partitions(3, None, -1),
            lambda: enum_B(-2),
            lambda: enum_B(4, -1),
            lambda: enum_B(4, None, -1),
            lambda: enum_D(-2),
            lambda: enum_D(4, -1),
            lambda: partition_batches(-1),
            lambda: partition_batches(3, -1),
            lambda: partition_batches(3, None, -1),
            lambda: doubled_batches(-2),
            lambda: doubled_batches(4, -1),
            lambda: doubled_batches(4, None, -1),
            lambda: evened_batches(-2),
            lambda: evened_batches(4, -1),
        ]
        for call in calls:
            # raised on the call itself, before the stream is consumed
            with pytest.raises(ValueError):
                call()

    def test_every_batch_stream_rejects_a_bad_floor(self):
        # above is None or an int >= 0, checked on the call
        for stream in (partition_batches, doubled_batches, evened_batches):
            for bad in (-1, 1.5, True, "2"):
                with pytest.raises(ValueError):
                    stream(4, above=bad)

    def test_every_enumerator_rejects_a_bound_that_is_not_an_int(self):
        calls = [
            lambda bad: partition_batches(bad),
            lambda bad: partition_batches(3, bad),
            lambda bad: partition_batches(3, None, bad),
            lambda bad: doubled_batches(bad),
            lambda bad: doubled_batches(4, bad),
            lambda bad: doubled_batches(4, None, bad),
            lambda bad: evened_batches(bad),
            lambda bad: evened_batches(4, bad),
            lambda bad: enum_partitions(bad),
            lambda bad: enum_B(4, None, bad),
            lambda bad: enum_D(bad),
            lambda bad: enum_rectangle(bad, 2),
            lambda bad: enum_rectangle(2, bad),
            lambda bad: subpartitions(Partition([2, 1]), bad),
            lambda bad: enum_offset_forms(bad, 0),
            lambda bad: enum_offset_forms(2, bad),
        ]
        for call in calls:
            for bad in (1.5, True, "2"):
                # raised on the call itself, before the stream is consumed
                with pytest.raises(ValueError, match=f"must be an int >= 0, got {bad!r}"):
                    call(bad)

    def test_zero_bounds_still_give_the_empty_partition(self):
        assert list(enum_partitions(3, 0)) == [Partition()]
        assert list(enum_partitions(3, None, 0)) == [Partition()]
        assert list(enum_partitions(0)) == [Partition()]
        assert list(partition_batches(0)) == [((), 0, (0,))]
