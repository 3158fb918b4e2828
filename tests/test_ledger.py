"""The independence ledger: which `ospdim` functions the two sides of each
correspondence both reach.

Each side runs at k = 3, p = 2 (p alone for d21-vs-so2) with the free rank
at its default, under `sys.setprofile`, after `SUMS`, `weyl_table` and the
osp(1|2n) numerator cache are cleared, so neither side reads what the other
summed.  A function is named by its module and qualified name, found from
the module namespaces, so comprehensions, lambdas and nested helpers, whose
frames differ between Python versions, are not counted.  Argument checks,
series arithmetic (all of `series`) and the case plumbing, the specs, sides
and `CaseSide.compute`, are left out.  What is left is what a fault in one
place would hide from both sides at once; a change that widens a case's set
must edit LEDGER.
"""

from __future__ import annotations

import inspect
import sys

import pytest

from ospdim import characters, partitions, schur, series
from ospdim.characters import CASES, SUMS
from ospdim.schur import weyl_table

MODULES = (characters, partitions, schur, series)

LEFT_OUT = {
    # argument checks
    "characters._check_params",
    "characters._check_family",
    "partitions._check_bounds",
    "partitions._check_partition",
    "partitions._integers",
    # case plumbing
    "characters.CaseSide.compute",
    "characters.IrrepSpec.__init__",
    "characters.IrrepSpec.__post_init__",
    "characters.Side.__init__",
}

# the three self-pairs stream one partition family into one gl(k) sum on
# both sides, so they share the walker, the held sum and the Weyl rows
_GL_SUM = {
    "characters.GradedSums.series",
    "characters.GradedSum.__init__",
    "schur.weyl_table",
    "schur._WeylTable.__init__",
    "schur._WeylTable.row",
    "schur._WeylTable._extend",
}

LEDGER = {
    "ospB-vs-soOdd": {"partitions.partition_batches", "partitions._preorder", *_GL_SUM},
    "ospB-vs-osp1": set(),
    "ospD-vs-soEven": {
        "partitions.partition_batches",
        "partitions._preorder",
        "partitions.doubled_batches",
        "partitions._doubled",
        *_GL_SUM,
    },
    "ospD-vs-sp": {
        "partitions.evened_batches",
        "partitions.partition_batches",
        "partitions._preorder",
        *_GL_SUM,
    },
    "d21-vs-so2": set(),
}


def _named_functions() -> dict:
    """code object -> "module.qualname" for every function and method
    the four modules define at their top level."""
    names = {}
    for module in MODULES:
        short = module.__name__.rsplit(".", 1)[1]
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if isinstance(obj, type):
                members = [(f"{name}.{attr}", value) for attr, value in vars(obj).items()]
            for qualname, fn in members:
                if isinstance(fn, property):
                    fn = fn.fget
                elif isinstance(fn, (staticmethod, classmethod)):
                    fn = fn.__func__
                code = getattr(inspect.unwrap(fn), "__code__", None) if callable(fn) else None
                if code is not None:
                    names[code] = f"{short}.{qualname}"
    return names


NAMES = _named_functions()


def reached(side, params: dict) -> set[str]:
    """The named functions one side reaches from cold caches, less the
    left-out ones and the series module."""
    SUMS.clear()
    weyl_table.cache_clear()
    characters._osp1_numerator_coeffs.cache_clear()
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            name = NAMES.get(frame.f_code)
            if name is not None:
                seen.add(name)

    sys.setprofile(profile)
    try:
        side.compute(params, 8)
    finally:
        sys.setprofile(None)
    return {name for name in seen if name not in LEFT_OUT and not name.startswith("series.")}


@pytest.mark.parametrize("case", list(CASES))
def test_shared_functions_match_the_ledger(case):
    row = CASES[case]
    params = {name: {"k": 3, "p": 2}[name] for name in row.bounds}
    if row.free:
        params[row.free] = 1
    left, right = reached(row.left, params), reached(row.right, params)
    # each side reaches code of its own, so an empty set is not an empty trace
    assert left - right and right - left
    assert left & right == LEDGER[case]


def test_every_case_has_a_ledger_entry():
    assert set(LEDGER) == set(CASES)


def test_the_names_cover_the_builders_and_the_walkers():
    named = set(NAMES.values())
    for name in ("characters.osp1_dim_t", "characters.d21_sdim_t", "partitions._preorder",
                 "partitions._offset_forms", "schur._WeylTable.row", "schur.dim_gl_frobenius",
                 "characters._osp1_numerator_coeffs"):
        assert name in named, name
