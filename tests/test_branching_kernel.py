"""Independent oracle for the shared branching kernel.

Each family builder is recomputed here the direct way: the public enum_*
stream of Partition objects, weighted by the hook-content formula
dim_gl_hook (not the Weyl rows of the kernel's table), with the sign and the
conjugate of the tall superdimension spelled out.  The oracle enumerates
only the bounds that define each family and lets the hook-content product
vanish on shapes with too many rows, so it does not reuse the builders'
length bounds either.
"""

import pytest

from ospdim.characters import (
    osp1_dim_t,
    ospB_sdim_t,
    ospD_sdim_t,
    so_even_dim_t,
    so_odd_dim_t,
    sp_dim_t,
)
from ospdim.partitions import Partition, enum_B, enum_D, enum_partitions
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


# (m, n) pairs: wide, equal ranks (gl(0)) and tall
RANKS = [(3, 1), (4, 2), (2, 2), (0, 0), (1, 3), (0, 2), (2, 5)]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("m,n", RANKS)
@pytest.mark.parametrize("p", [0, 1, 3])
def test_ospB(order, m, n, p):
    want = series(((lam.weight, sdim(m, n, lam)) for lam in enum_partitions(order, p)), order)
    assert_same(ospB_sdim_t(m, n, p, order), want)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("m,n", RANKS)
@pytest.mark.parametrize("p", [0, 1, 3])
def test_ospD(order, m, n, p):
    want = series(((lam.weight, sdim(m, n, lam)) for lam in enum_B(order, p)), order)
    assert_same(ospD_sdim_t(m, n, p, order), want)


# the tall builders stream the conjugate family, shapes with at most
# min(p, n - m) rows or even parts, as a plain gl(n - m) sum at -t; one deep
# point each pins that stream against the row-by-row oracle
TALL_DEEP = (1, 5, 24)


@pytest.mark.parametrize("p", [2, 5])
def test_ospB_tall_deep(p):
    m, n, order = TALL_DEEP
    want = series(((lam.weight, sdim(m, n, lam)) for lam in enum_partitions(order, p)), order)
    assert_same(ospB_sdim_t(m, n, p, order), want)


@pytest.mark.parametrize("p", [2, 5])
def test_ospD_tall_deep(p):
    m, n, order = TALL_DEEP
    want = series(((lam.weight, sdim(m, n, lam)) for lam in enum_B(order, p)), order)
    assert_same(ospD_sdim_t(m, n, p, order), want)


def test_rows_filled_at_a_low_order_extend_to_a_high_one():
    # the gl(6) rows of an order-5 sum are too short for order 30 and must
    # be extended in place, to what a fresh table and the oracle give
    m, n, p = 1, 7, 6
    weyl_table.cache_clear()
    ospB_sdim_t(m, n, p, 5)
    reused = ospB_sdim_t(m, n, p, 30)
    weyl_table.cache_clear()
    fresh = ospB_sdim_t(m, n, p, 30)
    want = series(((lam.weight, sdim(m, n, lam)) for lam in enum_partitions(30, p)), 30)
    assert_same(reused, want)
    assert_same(fresh, want)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("p", [0, 1, 2, 5])
def test_osp1_sum_route(order, n, p):
    lams = enum_partitions(order, None, p)
    want = series(((lam.weight, hook(n, lam)) for lam in lams), order)
    assert_same(osp1_dim_t(n, p, order, route="sum"), want)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("p", [0, 1, 3])
def test_so_odd(order, k, p):
    want = series(((lam.weight, hook(k, lam)) for lam in enum_partitions(order, p)), order)
    assert_same(so_odd_dim_t(k, p, order), want)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("p", [0, 1, 2, 4])
@pytest.mark.parametrize("chirality", ["last", "next_to_last"])
def test_so_even(order, k, p, chirality):
    # for even k the "last" chirality sums plain shapes, for odd k the other
    if (chirality == "last") == (k % 2 == 0):
        pairs = ((lam.weight, hook(k, lam)) for lam in enum_B(order, p))
    else:
        pairs = ((lam.weight, hook(k, Partition((p,) + lam.parts))) for lam in enum_B(order, p))
    assert_same(so_even_dim_t(k, p, chirality, order), series(pairs, order))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("p", [0, 1, 3, 6])
def test_sp(order, k, p):
    want = series(((lam.weight, hook(k, lam)) for lam in enum_D(order, p)), order)
    assert_same(sp_dim_t(k, p, order), want)
