"""The package is one program with or without `python -O`: no check in
`src/ospdim` is an `assert` statement, which -O strips, so a wrong value
fails the same way in both modes."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_optimized(code: str) -> subprocess.CompletedProcess:
    """Run code in a child interpreter under -O, the package on its path."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def test_no_assert_statement_in_the_package():
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted((SRC / "ospdim").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_selftest_golden_fails_under_optimize():
    out = run_optimized(
        "import sys\n"
        "import ospdim.selftest as st\n"
        "from ospdim.series import TruncatedSeries\n"
        "st.so_odd_dim_t = lambda k, p, order: TruncatedSeries.one(order)\n"
        "results = st.run_selftest()\n"
        "print(sys.flags.optimize, len(results), [r.name for r in results if not r.ok])\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "1 16 ['ospB-series']\n"


def test_weyl_row_division_is_checked_under_optimize():
    out = run_optimized(
        "import sys\n"
        "from ospdim.schur import _WeylTable\n"
        "t = _WeylTable(3)\n"
        "t[()] = [1, 3, 7]\n"
        "try:\n"
        "    print(t.row((), 3))\n"
        "except AssertionError as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "1 Weyl row of (), n=3 did not divide evenly at 3\n"


def test_hook_division_is_an_internal_error_under_optimize():
    # a wrong hook length leaves a remainder: exit 3, never a false mismatch
    out = run_optimized(
        "import sys\n"
        "from ospdim.partitions import Partition\n"
        "Partition.hook_length = lambda self, i, j: 7\n"
        "from ospdim.cli import main\n"
        "print(sys.flags.optimize)\n"
        "main(['dim', '--family', 'gl', '--n', '3', '--lambda', '2,1'])\n"
    )
    assert out.returncode == 3, out.stdout + out.stderr
    assert out.stdout == "1\n"
    assert out.stderr.startswith("internal error: AssertionError(")
