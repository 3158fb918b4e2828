"""Property-based tests of partitions and their enumerators: conjugation,
Frobenius coordinates, closed-form counts, and the raw depth-first
enumerator against the public weight-ordered one and a brute force, and a
walk resumed above a held weight against the full walk."""

from math import comb

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ospdim.partitions import (  # noqa: E402
    FrobeniusForm,
    Partition,
    _preorder,
    _shapes,
    doubled_batches,
    enum_B,
    enum_D,
    enum_offset_forms,
    enum_partitions,
    enum_rectangle,
    evened_batches,
    partition_batches,
)

CHECKS = settings(max_examples=60, deadline=None)

partitions = st.lists(st.integers(0, 9), max_size=9).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)
bounds = st.one_of(st.none(), st.integers(0, 7))


@st.composite
def frobenius_forms(draw):
    rank = draw(st.integers(0, 5))
    arms = draw(st.sets(st.integers(0, 8), min_size=rank, max_size=rank))
    legs = draw(st.sets(st.integers(0, 8), min_size=rank, max_size=rank))
    return FrobeniusForm(sorted(arms, reverse=True), sorted(legs, reverse=True))


def brute_force(max_weight, max_part, max_len):
    """Every partition of weight <= max_weight, as a set of tuples, built by
    splitting off the largest part, then filtered by the bounds."""

    def exact(w, cap):
        if w == 0:
            return [()]
        return [(a,) + rest for a in range(min(w, cap), 0, -1) for rest in exact(w - a, a)]

    return {
        t
        for w in range(max_weight + 1)
        for t in exact(w, w)
        if (max_part is None or not t or t[0] <= max_part)
        and (max_len is None or len(t) <= max_len)
    }


@CHECKS
@given(partitions)
def test_conjugation_is_an_involution(lam):
    assert lam.conjugate().conjugate() == lam
    assert lam.conjugate().weight == lam.weight


@CHECKS
@given(partitions)
def test_partition_frobenius_round_trip(lam):
    assert lam.frobenius().to_partition() == lam


@CHECKS
@given(frobenius_forms())
def test_form_partition_round_trip(form):
    lam = form.to_partition()
    assert lam.frobenius() == form
    assert lam.weight == form.weight


@CHECKS
@given(st.integers(0, 6), st.integers(0, 6))
def test_rectangle_count_is_binomial(a, b):
    assert sum(1 for _ in enum_rectangle(a, b)) == comb(a + b, b)


@CHECKS
@given(st.integers(0, 9), st.integers(0, 9))
def test_offset_form_count_is_power_of_two(n, p):
    assert sum(1 for _ in enum_offset_forms(n, p)) == 2 ** max(n - p, 0)


@CHECKS
@given(st.integers(0, 9))
def test_conjugation_maps_B_onto_D(w):
    bs = [lam.conjugate() for lam in enum_B(2 * w)]
    ds = list(enum_D(2 * w))
    assert len(bs) == len(set(bs)) == len(ds)
    assert set(bs) == set(ds)


@CHECKS
@given(st.integers(0, 12), bounds, bounds)
def test_raw_enumerator_matches_enum_partitions(w, a, b):
    raw = list(_shapes(partition_batches(w, a, b)))
    parts = [t for t, _ in raw]
    assert len(parts) == len(set(parts))
    assert all(weight == sum(t) for t, weight in raw)
    assert set(parts) == {lam.parts for lam in enum_partitions(w, a, b)}
    assert set(parts) == brute_force(w, a, b)


@CHECKS
@given(st.integers(0, 14), bounds, bounds)
def test_doubled_and_evened_images_match_B_and_D(w, a, b):
    doubled = [t for t, _ in _shapes(doubled_batches(w, a, b))]
    assert len(doubled) == len(set(doubled))
    assert set(doubled) == {lam.parts for lam in enum_B(w, a, b)}
    evened = [t for t, _ in _shapes(evened_batches(w, b))]
    assert len(evened) == len(set(evened))
    assert set(evened) == {lam.parts for lam in enum_D(w, b)}
    # so the tall ospD sum needs no t -> -t: its sign (-1)^|lambda| is +1
    assert all(weight % 2 == 0 for _, weight in _shapes(evened_batches(w, b)))


def check_once_after_parent(stream):
    """Each shape of the stream occurs once, and each non-empty one after
    parts[:-1]."""
    seen = set()
    for parts, _ in stream:
        assert parts not in seen, parts
        assert not parts or parts[:-1] in seen, parts
        seen.add(parts)


@CHECKS
@given(st.integers(0, 14), bounds, bounds)
def test_walks_yield_each_shape_once_after_its_parent(w, a, b):
    check_once_after_parent(_shapes(partition_batches(w, a, b)))
    check_once_after_parent(_shapes(evened_batches(w, b)))
    doubled = [t for t, _ in _shapes(doubled_batches(w, a, b))]
    assert len(doubled) == len(set(doubled))


def check_resumed(full, resumed, above):
    """The resumed batches expand to the full stream's shapes heavier than
    above, each once, in the full stream's relative order."""
    want = [shape for shape in _shapes(full) if shape[1] > above]
    got = list(_shapes(resumed))
    assert got == want
    assert len({parts for parts, _ in got}) == len(got)


@CHECKS
@given(st.integers(1, 2), st.integers(0, 10), st.integers(0, 6), st.integers(0, 6), st.integers(0, 24))
def test_a_resumed_walk_gives_the_full_walks_heavier_shapes(step, units, cap_units, rows, above):
    # max_weight and part_cap are multiples of step
    full = _preorder(step * units, step * cap_units, rows, step, -1)
    check_resumed(full, _preorder(step * units, step * cap_units, rows, step, above), above)


@CHECKS
@given(st.integers(0, 14), bounds, bounds, st.integers(0, 16))
def test_every_batch_stream_resumes_above_a_held_weight(w, a, b, above):
    check_resumed(partition_batches(w, a, b), partition_batches(w, a, b, above=above), above)
    check_resumed(doubled_batches(w, a, b), doubled_batches(w, a, b, above=above), above)
    check_resumed(evened_batches(w, b), evened_batches(w, b, above=above), above)
