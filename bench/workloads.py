"""The benchmark's four workloads and their correctness gates.

Each workload is a list of items built from a seed.  An item is one verdict
or one checked evaluation: it calls the package's public functions, checks
the result against an independent route, and returns its exact output as
text for the run's digest.  A failed check raises `Mismatch`.

The seed draws the order the items run in, and inputs that change the
amount of work little or not at all: the free rank of a correspondence, the
rational points of the Cummins-King check and the quotients, the label p of
D(2,1;alpha), the spinor's m.  The shape parameters that set the amount of
work come from fixed grids, so the runs of two seeds do about the same work
on different inputs and their timings can be compared.

Functions are looked up through their modules at call time, so the wrappers
of a traced run see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from functools import partial
from math import comb
from typing import Callable, NamedTuple

from ospdim import characters, cli, partitions, schur, series


class Mismatch(Exception):
    """An item's output failed its correctness check."""


class Item(NamedTuple):
    label: str
    run: Callable[[], str]


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _same_series(left, right, order: int) -> str:
    """Both sides agree through the requested order and are integral."""
    _check(left.order == order and right.order == order, "order differs from request")
    _check(left.coeffs == right.coeffs, "the two routes disagree")
    _check(all(c.denominator == 1 for c in left.coeffs), "non-integer coefficient")
    return ",".join(map(str, left.coeffs))


# -- verify_grid -------------------------------------------------------------

GRID_ORDER = 14
GRID_K_MAX = 5
GRID_P_MAX = 5
GRID_FREE_MAX = 3
FREE_PARAM = {
    "ospB-vs-soOdd": "n",
    "ospB-vs-osp1": "m",
    "ospD-vs-soEven": "n",
    "ospD-vs-sp": "m",
}


def _verify(args: list[str]) -> str:
    # --order is always passed, so the run never depends on OSPDIM_ORDER
    argv = ["verify", *args, "--order", str(GRID_ORDER), "--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(args=argv, prog_name="ospdim", standalone_mode=False)
    text = out.getvalue()
    report = json.loads(text)
    left, right = report["left"], report["right"]
    _check(report["verdict"] == "match", "verdict is not match")
    _check(left["order"] == right["order"] == GRID_ORDER, "order differs from request")
    _check(len(left["coeffs"]) == GRID_ORDER + 1, "wrong coefficient count")
    _check(left["coeffs"] == right["coeffs"], "the two sides disagree")
    return text


def verify_grid(rng: random.Random) -> list[Item]:
    items = []
    for case, free in FREE_PARAM.items():
        k_lo = 2 if case == "ospD-vs-soEven" else 1
        for k in range(k_lo, GRID_K_MAX + 1):
            for p in range(GRID_P_MAX + 1):
                for _ in range(GRID_FREE_MAX):
                    v = rng.randint(1, GRID_FREE_MAX)
                    args = ["--case", case, "--k", str(k), "--p", str(p), f"--{free}", str(v)]
                    items.append(Item(" ".join(args), partial(_verify, args)))
    for p in range(1, GRID_P_MAX + 1):
        args = ["--case", "d21-vs-so2", "--p", str(p)]
        items.append(Item(" ".join(args), partial(_verify, args)))
    return items


# -- deep_branching ----------------------------------------------------------

DEEP_ORDERS = (26, 28, 30)
DEEP_KS = range(3, 7)
DEEP_PS = range(2, 7)
DEEP_M_MAX = 4


def _ospB_vs_osp1_sum(m: int, k: int, p: int, order: int) -> str:
    left = characters.ospB_sdim_t(m, m + k, p, order)
    right = characters.osp1_dim_t(k, p, order, route="sum").substitute_neg_t()
    return _same_series(left, right, order)


def _ospD_vs_sp(m: int, k: int, p: int, order: int) -> str:
    left = characters.ospD_sdim_t(m, m + k, p, order)
    right = characters.sp_dim_t(k, p, order).substitute_neg_t()
    return _same_series(left, right, order)


def deep_branching(rng: random.Random) -> list[Item]:
    items = []
    for order in DEEP_ORDERS:
        for k in DEEP_KS:
            for p in DEEP_PS:
                for fn in (_ospB_vs_osp1_sum, _ospD_vs_sp):
                    m = rng.randint(1, DEEP_M_MAX)
                    label = f"{fn.__name__} m={m} k={k} p={p} order={order}"
                    items.append(Item(label, partial(fn, m, k, p, order)))
    return items


# -- series_high_order -------------------------------------------------------

D21_ORDERS = range(100, 181, 4)
OSP1_KS = range(2, 7)
OSP1_ORDERS = range(40, 121, 10)
SPINOR_NS = range(1, 6)
SPINOR_ORDERS = range(60, 141, 10)


def _d21(p: int, order: int) -> str:
    return _same_series(
        characters.d21_sdim_closed(p, order), characters.d21_sdim_t(p, order), order
    )


def _osp1_routes(k: int, p: int, order: int) -> str:
    return _same_series(
        characters.osp1_dim_t(k, p, order, route="closed"),
        characters.osp1_dim_t(k, p, order, route="sum"),
        order,
    )


def _spinor(m: int, n: int, order: int) -> str:
    got = characters.spinor_tdim(m, n, order)
    # 2^m/(1-t)^n has 2^m * C(j+n-1, n-1) at t^j
    want = [2**m * comb(j + n - 1, n - 1) for j in range(order + 1)]
    _check(got.order == order, "order differs from request")
    _check(list(got.coeffs) == want, "spinor series differs from the binomial form")
    return ",".join(map(str, got.coeffs))


def series_high_order(rng: random.Random) -> list[Item]:
    items = []
    for order in D21_ORDERS:
        p = rng.randint(1, 6)
        items.append(Item(f"d21 p={p} order={order}", partial(_d21, p, order)))
    for k in OSP1_KS:
        for i, order in enumerate(OSP1_ORDERS):
            # p sets the numerator and so the work; alternate it, not draw it
            p = (k + i) % 2
            items.append(
                Item(f"osp1 k={k} p={p} order={order}", partial(_osp1_routes, k, p, order))
            )
    for n in SPINOR_NS:
        for order in SPINOR_ORDERS:
            m = rng.randint(0, 4)
            items.append(
                Item(f"spinor m={m} n={n} order={order}", partial(_spinor, m, n, order))
            )
    return items


# -- super_schur -------------------------------------------------------------

CK_CASES = ((2, 2, 8), (3, 2, 8), (2, 3, 8), (3, 3, 8), (2, 2, 10), (3, 2, 10), (2, 3, 10))
CK_TRIALS = 3
SSE_WEIGHT = 9
SUPER_RANKS = ((2, 2), (3, 2), (2, 3), (3, 3))
QUOTIENT_ORDERS = range(24, 43, 2)


def _cummins_king(m: int, n: int, order: int, seed: int) -> str:
    report = characters.cummins_king_check(m, n, order, CK_TRIALS, seed)
    _check(report.match, "product and Schur sides disagree")
    return json.dumps(report.to_json_dict(), sort_keys=True)


def _sdim_point(lam, m: int, n: int) -> str:
    got = schur.super_schur_eval(lam, [1] * m, [-1] * n)
    _check(got == schur.sdim_gl(m, n, lam), "value at (1..1|-1..-1) is not sdim")
    return str(got)


def _rational_point(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([i for i in range(-9, 10) if i]), rng.randint(1, 9))


def _quotient(xs, ys, order: int) -> str:
    """The Cummins-King product side at a rational point, far past the order
    the Schur side can reach, checked by multiplying back."""
    poly = series.polynomial
    num = series.TruncatedSeries.one(order)
    for x in xs:
        for y in ys:
            num = num * poly([1, 0, x * y], order)
    den = series.TruncatedSeries.one(order)
    for i, x in enumerate(xs):
        for x2 in xs[i + 1 :]:
            den = den * poly([1, 0, -x * x2], order)
    for i, y in enumerate(ys):
        for y2 in ys[i:]:
            den = den * poly([1, 0, -y * y2], order)
    quotient = num / den
    _check(quotient.order == order, "order differs from request")
    _check((quotient * den).coeffs == num.coeffs, "quotient times divisor is not the dividend")
    return ",".join(map(str, quotient.coeffs))


def super_schur(rng: random.Random) -> list[Item]:
    items = []
    for m, n in SUPER_RANKS:
        for order in QUOTIENT_ORDERS:
            xs = [_rational_point(rng) for _ in range(m)]
            ys = [_rational_point(rng) for _ in range(n)]
            label = f"quotient x={xs} y={ys} order={order}"
            items.append(Item(label, partial(_quotient, xs, ys, order)))
    for m, n, order in CK_CASES:
        seed = rng.randrange(2**32)
        label = f"cummins_king m={m} n={n} order={order} seed={seed}"
        items.append(Item(label, partial(_cummins_king, m, n, order, seed)))
    shapes = list(partitions.enum_partitions(SSE_WEIGHT))
    for m, n in SUPER_RANKS:
        for lam in shapes:
            items.append(Item(f"sdim {lam} m={m} n={n}", partial(_sdim_point, lam, m, n)))
    return items


WORKLOADS = {
    "verify_grid": verify_grid,
    "deep_branching": deep_branching,
    "series_high_order": series_high_order,
    "super_schur": super_schur,
}


def build(workload: str, seed: int) -> list[Item]:
    """The workload's items for this seed, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    items = WORKLOADS[workload](rng)
    rng.shuffle(items)
    return items
