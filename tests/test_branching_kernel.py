"""Independent oracle for the shared branching sum, `characters.SUMS`.

Each family builder is recomputed here the direct way: the public enum_*
stream of Partition objects, weighted by the hook-content formula
dim_gl_hook (not the Weyl rows that the sums read), with the sign and the
conjugate of the tall superdimension spelled out.  The oracle enumerates
only the bounds that define each family and lets the hook-content product
vanish on shapes with too many rows, so it does not reuse the builders'
length bounds either.  The builders keep each graded sum for the life of
the process, so the tests of that table clear it, with the gl(k) rows,
wherever a first sum is meant, and the resume tests read its counts.
"""

from functools import partial

import pytest

from ospdim import characters
from ospdim.characters import (
    osp1_dim_t,
    ospB_sdim_t,
    ospD_sdim_t,
    so_even_dim_t,
    so_odd_dim_t,
    sp_dim_t,
)
from ospdim.partitions import (
    Partition,
    doubled_batches,
    enum_B,
    enum_D,
    enum_partitions,
    evened_batches,
    partition_batches,
)
from ospdim.schur import dim_gl_hook, weyl_table
from ospdim.series import TruncatedSeries

ORDERS = (0, 5, 16)


def hook(k, lam):
    """gl(k) dimension, with gl(0) spelled out: 1 on the empty shape only."""
    if k == 0:
        return 0 if lam else 1
    return dim_gl_hook(k, lam)


def conjugate(lam):
    return Partition([sum(1 for part in lam if part > j) for j in range(lam[0])])


def sdim(m, n, lam):
    if m >= n:
        return hook(m - n, lam)
    return (-1) ** lam.weight * hook(n - m, conjugate(lam))


def series(pairs, order):
    coeffs = [0] * (order + 1)
    for exp, val in pairs:
        coeffs[exp] += val
    return TruncatedSeries(coeffs, order)


def assert_same(got, want):
    assert got.order == want.order
    assert got.coeffs == want.coeffs


# the oracle of each builder, called with the builder's arguments


def want_ospB(m, n, p, order):
    return series(((lam.weight, sdim(m, n, lam)) for lam in enum_partitions(order, p)), order)


def want_ospD(m, n, p, order):
    return series(((lam.weight, sdim(m, n, lam)) for lam in enum_B(order, p)), order)


def want_osp1_sum(n, p, order):
    return series(((lam.weight, hook(n, lam)) for lam in enum_partitions(order, None, p)), order)


def want_so_odd(k, p, order):
    return series(((lam.weight, hook(k, lam)) for lam in enum_partitions(order, p)), order)


def want_so_even(k, p, chirality, order):
    # for even k the "last" chirality sums plain shapes, for odd k the other
    if (chirality == "last") == (k % 2 == 0):
        pairs = ((lam.weight, hook(k, lam)) for lam in enum_B(order, p))
    else:
        pairs = ((lam.weight, hook(k, Partition((p,) + lam.parts))) for lam in enum_B(order, p))
    return series(pairs, order)


def want_sp(k, p, order):
    return series(((lam.weight, hook(k, lam)) for lam in enum_D(order, p)), order)


def osp1_sum(n, p, order):
    return osp1_dim_t(n, p, order, route="sum")


def clear_tables():
    """Empty the graded sums and the gl(k) rows they were read from."""
    characters.SUMS.clear()
    weyl_table.cache_clear()


# (m, n) pairs: wide, equal ranks (gl(0)) and tall
RANKS = [(3, 1), (4, 2), (2, 2), (0, 0), (1, 3), (0, 2), (2, 5)]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("m,n", RANKS)
@pytest.mark.parametrize("p", [0, 1, 3])
def test_ospB(order, m, n, p):
    assert_same(ospB_sdim_t(m, n, p, order), want_ospB(m, n, p, order))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("m,n", RANKS)
@pytest.mark.parametrize("p", [0, 1, 3])
def test_ospD(order, m, n, p):
    assert_same(ospD_sdim_t(m, n, p, order), want_ospD(m, n, p, order))


# the tall builders stream the conjugate family, shapes with at most
# min(p, n - m) rows or even parts, as a plain gl(n - m) sum at -t; one deep
# point each pins that stream against the row-by-row oracle
TALL_DEEP = (1, 5, 24)


@pytest.mark.parametrize("p", [2, 5])
def test_ospB_tall_deep(p):
    m, n, order = TALL_DEEP
    assert_same(ospB_sdim_t(m, n, p, order), want_ospB(m, n, p, order))


@pytest.mark.parametrize("p", [2, 5])
def test_ospD_tall_deep(p):
    m, n, order = TALL_DEEP
    assert_same(ospD_sdim_t(m, n, p, order), want_ospD(m, n, p, order))


def test_rows_filled_at_a_low_order_extend_to_a_high_one():
    # the gl(6) rows of an order-5 sum are too short for order 30 and must
    # be extended in place, to what fresh tables and the oracle give
    m, n, p = 1, 7, 6
    clear_tables()
    ospB_sdim_t(m, n, p, 5)
    reused = ospB_sdim_t(m, n, p, 30)
    clear_tables()
    fresh = ospB_sdim_t(m, n, p, 30)
    want = want_ospB(m, n, p, 30)
    assert_same(reused, want)
    assert_same(fresh, want)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("p", [0, 1, 2, 5])
def test_osp1_sum_route(order, n, p):
    assert_same(osp1_sum(n, p, order), want_osp1_sum(n, p, order))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("p", [0, 1, 3])
def test_so_odd(order, k, p):
    assert_same(so_odd_dim_t(k, p, order), want_so_odd(k, p, order))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("p", [0, 1, 2, 4])
@pytest.mark.parametrize("chirality", ["last", "next_to_last"])
def test_so_even(order, k, p, chirality):
    assert_same(so_even_dim_t(k, p, chirality, order), want_so_even(k, p, chirality, order))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("p", [0, 1, 3, 6])
def test_sp(order, k, p):
    assert_same(sp_dim_t(k, p, order), want_sp(k, p, order))


def test_tall_ospB_and_so_odd_keep_their_own_sums():
    # at gl(k) the tall ospB streams shapes of at most min(p, k) rows and
    # so_odd those inside the k x p rectangle: one stream, other bounds
    k, p, order = 3, 2, 12
    clear_tables()
    tall = ospB_sdim_t(1, 1 + k, p, order)
    so = so_odd_dim_t(k, p, order)
    assert set(characters.SUMS) == {
        (k, partition_batches, (None, min(p, k))),
        (k, partition_batches, (p, k)),
    }
    assert_same(tall, want_ospB(1, 1 + k, p, order))
    assert_same(so, want_so_odd(k, p, order))
    assert tall.substitute_neg_t() != so


def test_one_family_at_one_rank_is_summed_once():
    # both sides of ospB-vs-soOdd read one entry, whatever the free rank
    clear_tables()
    for n in (1, 2, 3):
        assert characters.verify_correspondence("ospB-vs-soOdd", k=2, p=3, n=n, order=10).match
    assert list(characters.SUMS) == [(2, partition_batches, (3, 2))]


BUILDS = {
    "ospB": (ospB_sdim_t, want_ospB),
    "ospD": (ospD_sdim_t, want_ospD),
    "osp1": (osp1_sum, want_osp1_sum),
    "soOdd": (so_odd_dim_t, want_so_odd),
    "soEven": (so_even_dim_t, want_so_even),
    "sp": (sp_dim_t, want_sp),
}


def test_any_sequence_of_builds_and_orders_reads_what_fresh_tables_give():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    small = st.integers(0, 4)
    specs = st.one_of(
        st.tuples(st.sampled_from(["ospB", "ospD"]), small, small, small),
        st.tuples(st.sampled_from(["osp1", "soOdd", "sp"]), st.integers(1, 4), small),
        st.tuples(st.just("soEven"), st.integers(2, 4), small, st.sampled_from(["last", "next_to_last"])),
    )

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(
        st.lists(specs, min_size=1, max_size=4),
        st.lists(st.integers(0, 14), min_size=2, max_size=5),
    )
    def check(drawn, orders):
        # every spec at every order, so each entry is read below, at and
        # above its held order; ranks this small share entries often
        calls = [(spec, order) for order in orders for spec in drawn]
        clear_tables()
        got = [BUILDS[name][0](*args, order) for (name, *args), order in calls]
        # each builder makes one owner call, and every spec reaches the
        # highest order, so each record holds through it
        records = list(characters.SUMS.values())
        assert sum(r.sums + r.reads for r in records) == len(calls)
        assert all(len(r.coeffs) - 1 == max(orders) for r in records)
        for ((name, *args), order), series_ in zip(calls, got):
            clear_tables()
            build, want = BUILDS[name]
            assert_same(series_, build(*args, order))
            assert_same(series_, want(*args, order))

    check()


# one family per stream, to be built at rising orders in one process: the
# builder and its oracle, each taking the order last, the owner's key and
# the family's shapes through an order
RESUMED_ORDERS = (5, 12, 20)
STREAMS = {
    "tall": (
        partial(ospB_sdim_t, 1, 4, 3), partial(want_ospB, 1, 4, 3),
        (3, partition_batches, (None, 3)), lambda o: enum_partitions(o, None, 3),
    ),
    "rectangle": (
        partial(so_odd_dim_t, 4, 5), partial(want_so_odd, 4, 5),
        (4, partition_batches, (5, 4)), lambda o: enum_partitions(o, 5, 4),
    ),
    "evened": (
        partial(sp_dim_t, 3, 4), partial(want_sp, 3, 4),
        (3, evened_batches, (3,)), lambda o: enum_D(o, 3),
    ),
    "doubled": (
        partial(so_even_dim_t, 4, 5, "last"), partial(want_so_even, 4, 5, "last"),
        (4, doubled_batches, (5, 4)), lambda o: enum_B(o, 5, 4),
    ),
    "headed": (
        partial(so_even_dim_t, 5, 5, "last"), partial(want_so_even, 5, 5, "last"),
        (5, characters._headed_batches, (5, 4)), lambda o: enum_B(o, 5, 4),
    ),
}


@pytest.mark.parametrize("name", STREAMS)
def test_a_higher_order_resumes_and_sums_only_the_new_shapes(name):
    build, want, key, shapes = STREAMS[name]
    low, _, high = RESUMED_ORDERS
    clear_tables()
    got = {}
    for order in RESUMED_ORDERS:
        got[order] = build(order)
        if order == low:
            walked = characters.SUMS[key].shapes
    counts = characters.SUMS[key]
    assert (counts.sums, counts.reads) == (3, 0)
    assert walked == sum(1 for _ in shapes(low))
    assert counts.shapes - walked == sum(1 for lam in shapes(high) if lam.weight > low)
    assert list(characters.SUMS) == [key]
    for order, series_ in got.items():
        clear_tables()
        assert_same(series_, build(order))
        assert_same(series_, want(order))


def test_a_refused_or_failed_sum_leaves_no_count():
    clear_tables()
    with pytest.raises(ValueError):
        characters.SUMS.series(5, 2, partition_batches, -1, 2)
    assert not characters.SUMS

    def breaks_on_resume(max_weight, *, above=None):
        if above is not None:
            raise RuntimeError("no resume")
        yield from partition_batches(max_weight, None, 2)

    key = (2, breaks_on_resume, ())
    walked = characters.SUMS.series(5, *key[:2]).coeffs
    with pytest.raises(RuntimeError):
        characters.SUMS.series(12, *key[:2])
    counts = characters.SUMS[key]
    assert (counts.sums, counts.reads) == (1, 0)
    assert counts.shapes == sum(1 for _ in enum_partitions(5, None, 2))
    assert tuple(characters.SUMS[key].coeffs) == walked
    assert list(characters.SUMS) == [key]


def test_a_sum_streams_above_the_held_order_and_a_read_never_streams():
    # the first sum is a resume above nothing, and reads call no stream
    clear_tables()
    seen = []

    def recorded(max_weight, *, above=None):
        seen.append(above)
        return partition_batches(max_weight, None, 2, above=above)

    want = [characters.SUMS.series(order, 2, partition_batches, None, 2) for order in (5, 3, 5, 9)]
    clear_tables()
    got = [characters.SUMS.series(order, 2, recorded) for order in (5, 3, 5, 9)]
    assert seen == [None, 5]
    assert [g.coeffs for g in got] == [w.coeffs for w in want]
    counts = characters.SUMS[(2, recorded, ())]
    assert (counts.sums, counts.reads) == (2, 2)
    assert counts.shapes == sum(1 for _ in enum_partitions(9, None, 2))


def test_resumed_tall_ospB_equals_the_closed_osp1_route():
    # the closed route divides out a numerator and reads no graded sum
    clear_tables()
    for k in range(1, 5):
        for p in range(5):
            closed = osp1_dim_t(k, p, 30, route="closed").substitute_neg_t()
            for order in (10, 20, 30):
                assert ospB_sdim_t(1, 1 + k, p, order).coeffs == closed.coeffs[: order + 1], (k, p, order)
            # each p > k shares the key of p = k and only reads it
            counts = characters.SUMS[(k, partition_batches, (None, min(p, k)))]
            assert counts.sums == 3
