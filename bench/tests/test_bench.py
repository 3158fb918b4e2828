"""Tests of the benchmark itself: its counters and digests repeat, its gates
catch a wrong result, and its output keeps the shape BENCHMARK.json names.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from ospdim import characters, series  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counters_and_digest_repeat(workload):
    first = run.run_worker(workload, 1, trace=True)
    second = run.run_worker(workload, 1, trace=True)
    assert first["counters"] == second["counters"]
    assert first["digest"] == second["digest"]
    assert first["mismatches"] == first["crashes"] == 0
    assert first["attempted"] >= 100


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_second_seed_is_error_free_with_new_inputs(workload):
    result = run.run_worker(workload, 2, trace=False)
    assert result["attempted"] >= 100
    assert result["mismatches"] == result["crashes"] == 0
    assert result["digest"] != run.run_worker(workload, 1, trace=False)["digest"]


def test_tracing_leaves_outputs_unchanged():
    plain = run.run_worker("super_schur", 3, trace=False)
    traced = run.run_worker("super_schur", 3, trace=True)
    assert plain["digest"] == traced["digest"]


def _first_item(workload: str, prefix: str) -> workloads.Item:
    return next(i for i in workloads.build(workload, 1) if i.label.startswith(prefix))


def test_gate_catches_a_wrong_branching_sum(monkeypatch):
    item = _first_item("deep_branching", "_ospD_vs_sp")
    item.run()
    real = characters.sp_dim_t
    extra = series.TruncatedSeries.monomial
    monkeypatch.setattr(
        characters, "sp_dim_t", lambda k, p, order: real(k, p, order) + extra(order, 1, order)
    )
    with pytest.raises(workloads.Mismatch):
        item.run()


def test_gate_catches_a_wrong_closed_form(monkeypatch):
    item = _first_item("series_high_order", "spinor")
    item.run()
    real = characters.spinor_tdim
    monkeypatch.setattr(characters, "spinor_tdim", lambda m, n, order: real(m, n, order) * 2)
    with pytest.raises(workloads.Mismatch):
        item.run()


def test_cli_mismatch_counts_as_mismatch_and_crash_as_crash(monkeypatch):
    real = characters.so_odd_dim_t
    monkeypatch.setattr(characters, "so_odd_dim_t", lambda k, p, order: real(k, p, order) * 2)
    wrong = worker.run_round("verify_grid", 1, trace=False)
    assert wrong["mismatches"] > 0 and wrong["crashes"] == 0

    def broken(k, p, order):
        raise RuntimeError("broken builder")

    monkeypatch.setattr(characters, "so_odd_dim_t", broken)
    crashed = worker.run_round("verify_grid", 1, trace=False)
    assert crashed["crashes"] == wrong["mismatches"] and crashed["mismatches"] == 0


def test_workload_names_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_result_line_has_every_named_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "verify_grid",
             "--seed", "4", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, check=True, cwd=ROOT,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        named = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == named


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bench = tmp_path / BENCH_DIR.name
    shutil.copytree(BENCH_DIR, bench, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "verify_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
