"""Built-in golden checks: every printed example value this package is
expected to reproduce, runnable from the command line via `ospdim selftest`.

Each check returns silently on success and raises AssertionError with a
short message on failure; the runner turns that into one line per check.
The randomized entries take their seed from the runner, so a fixed seed
gives an identical transcript.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb
from typing import Callable

from .partitions import FrobeniusForm, Partition, enum_B, enum_D, enum_offset_forms, enum_rectangle
from .schur import dim_gl_frobenius, dim_gl_hook, dim_gl_weyl, schur_eval, sdim_gl
from .series import TruncatedSeries, polynomial
from .characters import (
    CASES,
    cummins_king_check,
    d21_sdim_closed,
    d21_sdim_t,
    osp1_dim_t,
    osp1_numerator,
    ospB_sdim_t,
    ospD_sdim_t,
    so_even_dim_t,
    so_odd_dim_t,
    sp_dim_t,
    spinor_sdim,
    spinor_tdim,
    verify_correspondence,
)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _expect(got, want, what: str) -> None:
    assert got == want, f"{what}: got {got}, want {want}"


def _check_conjugate() -> None:
    lam = Partition([5, 4, 4, 2])
    _expect(lam.conjugate().parts, (4, 4, 3, 3, 1), "conjugate of (5,4,4,2)")
    _expect(lam.conjugate().conjugate(), lam, "conjugation involution")
    _expect(Partition().conjugate().parts, (), "conjugate of the zero partition")


def _check_frobenius() -> None:
    lam = Partition([5, 4, 4, 2])
    form = lam.frobenius()
    _expect((form.arms, form.legs), ((4, 2, 1), (3, 2, 0)), "Frobenius of (5,4,4,2)")
    _expect(form.to_partition(), lam, "Frobenius round trip")
    _expect(Partition([2, 1]).frobenius(), FrobeniusForm([1], [1]), "Frobenius of (2,1)")


def _check_hooks() -> None:
    lam = Partition([5, 4, 4, 2])
    grid = [[lam.hook_length(i, j) for j in range(1, lam[i - 1] + 1)] for i in range(1, 5)]
    _expect(grid, [[8, 7, 5, 4, 1], [6, 5, 3, 2], [5, 4, 2, 1], [2, 1]], "hook grid of (5,4,4,2)")


def _check_enumerators() -> None:
    got = [q.parts for q in enum_B(6)]
    want = [(), (1, 1), (2, 2), (1, 1, 1, 1), (3, 3), (2, 2, 1, 1), (1, 1, 1, 1, 1, 1)]
    _expect(got, want, "even-multiplicity partitions through weight 6")
    got = [q.parts for q in enum_D(8, 2)]
    want = [(), (2,), (4,), (2, 2), (6,), (4, 2), (8,), (6, 2), (4, 4)]
    _expect(got, want, "even-part partitions, at most 2 rows, through weight 8")
    _expect(sum(1 for _ in enum_rectangle(3, 4)), comb(7, 4), "rectangle count 3x4")
    for n, p in [(3, 0), (3, 2), (5, 1), (4, 4)]:
        _expect(
            sum(1 for _ in enum_offset_forms(n, p)),
            2 ** max(n - p, 0),
            f"offset form count n={n} p={p}",
        )


def _check_gl_dims() -> None:
    lam = Partition([5, 4, 4, 2])
    for fn in (dim_gl_weyl, dim_gl_hook):
        _expect(fn(5, lam), 1701, f"{fn.__name__}(5, (5,4,4,2))")
    _expect(dim_gl_frobenius(5, lam.frobenius()), 1701, "dim_gl_frobenius(5, (5,4,4,2))")
    mu = Partition([2, 1])
    _expect(
        (dim_gl_weyl(3, mu), dim_gl_hook(3, mu), dim_gl_frobenius(3, mu.frobenius())),
        (8, 8, 8),
        "gl(3) adjoint-sized irrep (2,1)",
    )
    _expect(schur_eval(mu, [1, 1, 1]), Fraction(8), "s_(2,1) at (1,1,1)")


def _check_sdim() -> None:
    _expect(sdim_gl(3, 1, Partition([2, 1])), 2, "sdim gl(3|1) (2,1)")
    _expect(sdim_gl(1, 3, Partition([2, 1])), -2, "sdim gl(1|3) (2,1)")
    _expect(sdim_gl(2, 2, Partition([1])), 0, "sdim gl(2|2) (1)")
    _expect(sdim_gl(2, 2, Partition()), 1, "sdim gl(2|2) (0)")


def _check_numerators() -> None:
    _expect(str(osp1_numerator(1, 0, 4)), "1 - t", "numerator n=1 p=0")
    _expect(str(osp1_numerator(2, 0, 6)), "1 - 2t + 2t^3 - t^4", "numerator n=2 p=0")
    _expect(str(osp1_numerator(3, 2, 6)), "1 - t^3", "numerator n=3 p=2")
    _expect(str(osp1_numerator(3, 1, 8)), "1 - 3t^2 + 3t^4 - t^6", "numerator n=3 p=1")
    o = 16
    # (1 - t)^3 (1 - t^2)^3: t^i takes t^(i - 2b) from the first factor and t^2b from the second
    product = [sum((-1) ** (i - b) * comb(3, i - 2 * b) * comb(3, b) for b in range(i // 2 + 1))
               for i in range(o + 1)]
    _expect(osp1_numerator(3, 0, o), polynomial(product, o), "numerator n=3 p=0 as a product")
    for n in range(1, 7):
        e = n * (n - 1) // 2
        power = [0 if i % 2 else (-1) ** (i // 2) * comb(e, i // 2) for i in range(o + 1)]
        _expect(osp1_numerator(n, 1, o), polynomial(power, o), f"numerator n={n} p=1 as a power")
    for p in range(6):
        o2 = 2 * p + 6
        _expect(
            osp1_numerator(p + 1, p, o2),
            TruncatedSeries.one(o2) - TruncatedSeries.monomial(p + 1, 1, o2),
            f"numerator n=p+1 p={p}",
        )
        want = (
            TruncatedSeries.one(o2)
            - TruncatedSeries.monomial(p + 1, p + 2, o2)
            + TruncatedSeries.monomial(p + 3, p + 2, o2)
            - TruncatedSeries.monomial(2 * p + 4, 1, o2)
        )
        _expect(osp1_numerator(p + 2, p, o2), want, f"numerator n=p+2 p={p}")
    for n in range(4):
        _expect(osp1_numerator(n, n, 8), TruncatedSeries.one(8), f"numerator n=p={n}")


def _check_osp1_series() -> None:
    want = {
        0: "1",
        1: "1 + 3t + 6t^2 + 10t^3 + 15t^4",
        2: "1 + 3t + 9t^2 + 18t^3 + 36t^4",
        3: "1 + 3t + 9t^2 + 19t^3 + 39t^4",
    }
    for p, text in want.items():
        s = osp1_dim_t(3, p, 4, route="sum")
        _expect(str(s), text, f"osp(1|6) t-dimension p={p}")
    for n in range(1, 5):
        for p in range(4):
            a = osp1_dim_t(n, p, 12, route="sum")
            b = osp1_dim_t(n, p, 12, route="closed")
            _expect(a, b, f"route agreement n={n} p={p}")


def _check_ospB() -> None:
    for n in (1, 2, 3):
        _expect(
            str(ospB_sdim_t(n + 3, n, 1, 8)),
            "1 + 3t + 3t^2 + t^3",
            f"osp({2 * n + 7}|{2 * n}) p=1 series",
        )
        _expect(
            str(ospB_sdim_t(n + 3, n, 2, 8)),
            "1 + 3t + 9t^2 + 9t^3 + 9t^4 + 3t^5 + t^6",
            f"osp({2 * n + 7}|{2 * n}) p=2 series",
        )
    _expect(ospB_sdim_t(4, 1, 1, 8).eval_at_one()[0], Fraction(8), "total superdimension 8")
    _expect(ospB_sdim_t(4, 1, 2, 8).eval_at_one()[0], Fraction(35), "total superdimension 35")
    _expect(str(so_odd_dim_t(3, 1, 8)), "1 + 3t + 3t^2 + t^3", "so(7) p=1 series")
    _expect(ospB_sdim_t(2, 2, 3, 8), TruncatedSeries.one(8), "osp(5|4) degenerate p=3")
    one_over = polynomial([(-1) ** i * comb(i + 2, 2) for i in range(9)], 8)
    _expect(ospB_sdim_t(1, 4, 1, 8), one_over, "osp(3|8) p=1 head 1/(1+t)^3")
    _expect(
        ospB_sdim_t(2, 5, 2, 8).coeffs[:5],
        tuple(Fraction(c) for c in (1, -3, 9, -18, 36)),
        "osp(5|10) p=2 head",
    )


def _check_ospD() -> None:
    _expect(str(ospD_sdim_t(6, 1, 1, 10)), "1 + 10t^2 + 5t^4", "osp(12|2) p=1 series")
    _expect(
        str(ospD_sdim_t(6, 1, 2, 10)),
        "1 + 10t^2 + 55t^4 + 45t^6 + 15t^8",
        "osp(12|2) p=2 series",
    )
    _expect(ospD_sdim_t(6, 1, 1, 10).eval_at_one()[0], Fraction(16), "total superdimension 16")
    _expect(ospD_sdim_t(6, 1, 2, 10).eval_at_one()[0], Fraction(126), "total superdimension 126")
    _expect(
        so_even_dim_t(5, 1, "next_to_last", 10),
        ospD_sdim_t(6, 1, 1, 10),
        "so(10) [0,0,0,1,0] series",
    )
    _expect(str(so_even_dim_t(5, 1, "last", 10)), "5 + 10t^2 + t^4", "so(10) [0,0,0,0,1] series")
    _expect(
        so_even_dim_t(5, 1, "last", 10).eval_at_one()[0], Fraction(16), "so(10) other chirality total"
    )


def _check_sp() -> None:
    _expect(str(sp_dim_t(3, 1, 8)), "1 + 6t^2 + 15t^4 + 28t^6 + 45t^8", "sp(6) p=1 series")
    _expect(str(sp_dim_t(3, 2, 8)), "1 + 6t^2 + 21t^4 + 55t^6 + 120t^8", "sp(6) p=2 series")
    for k in (1, 2, 3, 4):
        # the even terms of 1/(1 - t)^k, the mean of 1/(1 + t)^k and 1/(1 - t)^k
        even = polynomial([0 if i % 2 else comb(i + k - 1, k - 1) for i in range(13)], 12)
        _expect(sp_dim_t(k, 1, 12), even, f"sp(2k) p=1 closed form k={k}")
    _expect(ospD_sdim_t(1, 4, 1, 8), sp_dim_t(3, 1, 8).substitute_neg_t(), "osp(2|8) p=1 vs sp(6)")
    _expect(ospD_sdim_t(2, 5, 2, 8), sp_dim_t(3, 2, 8).substitute_neg_t(), "osp(4|10) p=2 vs sp(6)")


def _check_spinor() -> None:
    _expect(str(spinor_tdim(2, 1, 4)), "4 + 4t + 4t^2 + 4t^3 + 4t^4", "spinor t-dimension (2,1)")
    _expect(spinor_tdim(3, 0, 4), TruncatedSeries([8], 4), "spinor t-dimension (3,0)")
    _expect(spinor_sdim(2, 1), Fraction(2), "spinor superdimension (2,1)")
    _expect(spinor_sdim(1, 2), Fraction(1, 2), "spinor superdimension (1,2)")
    _expect(spinor_sdim(0, 3), Fraction(1, 8), "spinor superdimension (0,3)")


def _check_d21() -> None:
    _expect(str(d21_sdim_t(1, 4)), "2 - 2t + 2t^2 - 2t^3 + 2t^4", "D(2,1;alpha) p=1 series")
    _expect(str(d21_sdim_t(2, 4)), "3 - 4t + 4t^2 - 4t^3 + 4t^4", "D(2,1;alpha) p=2 series")
    for p in (1, 2, 3, 5):
        _expect(d21_sdim_t(p, 14), d21_sdim_closed(p, 14), f"closed form p={p}")
        # (1 + t) times the closed form is (1 + p) + (1 - p)t, which is 2 at t = 1
        at_one = (d21_sdim_closed(p, 14) * polynomial([1, 1], 14)).eval_at_one()
        _expect(at_one, (Fraction(2), True), f"value of the closed form at t=1, p={p}")


def _check_correspondences() -> None:
    """Every case at each lower bound + 2 and free rank 2."""
    for case, row in CASES.items():
        params = {name: low + 2 for name, low in row.bounds.items()}
        if row.free:
            params[row.free] = 2
        report = verify_correspondence(case, order=10, **params)
        assert report.match, f"{case} {params}: diverges at t^{report.first_divergence}"


def _make_cummins_king(m: int, n: int) -> Callable[[int], None]:
    def check(seed: int) -> None:
        report = cummins_king_check(m, n, order=6, trials=2, seed=seed)
        assert report.match, (
            f"product expansion ({m},{n}) failed on trial {report.failed_trial}"
            f" at u^{report.first_divergence}"
        )

    return check


CHECKS: list[tuple[str, Callable[[], None]]] = [
    ("partition-conjugate", _check_conjugate),
    ("frobenius-coordinates", _check_frobenius),
    ("hook-lengths", _check_hooks),
    ("constrained-enumerators", _check_enumerators),
    ("gl-dimensions", _check_gl_dims),
    ("gl-superdimensions", _check_sdim),
    ("closed-form-numerators", _check_numerators),
    ("osp1-series", _check_osp1_series),
    ("ospB-series", _check_ospB),
    ("ospD-series", _check_ospD),
    ("sp-series", _check_sp),
    ("spinor-series", _check_spinor),
    ("d21-series", _check_d21),
    ("correspondences", _check_correspondences),
]

SEEDED_CHECKS: list[tuple[str, Callable[[int], None]]] = [
    ("product-expansion-1-1", _make_cummins_king(1, 1)),
    ("product-expansion-2-1", _make_cummins_king(2, 1)),
]


def run_selftest(seed: int = 0) -> list[CheckResult]:
    runs = [(name, fn, "") for name, fn in CHECKS]
    runs += [(name, partial(fn, seed), f"seed={seed}") for name, fn in SEEDED_CHECKS]
    results = []
    for name, fn, detail in runs:
        try:
            fn()
            results.append(CheckResult(name, True, detail))
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc)))
    return results
