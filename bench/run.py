"""Run one benchmark workload for a fixed time and print its metrics.

    python3 bench/run.py --workload verify_grid --seed 1 --seconds 30 --trace 0

Run it from a source checkout; it installs nothing and puts `src` on the
PYTHONPATH of the processes it starts.  It alternates two timings until the
next round would end after `--seconds`: a fresh interpreter that imports
`ospdim.cli`, the start-up every command line call pays, and a round of the
workload's fixed, seeded job in a fresh worker process (`worker.py`).  The
driving process is single-threaded and waits for each worker, so one worker
runs at a time.

With `--trace 0` it reports the end-to-end metrics: medians over rounds of
the job's wall time and peak memory, per-item latency percentiles over the
items of all rounds, and the median set-up time.  Every time is scaled to
the speed of a reference job timed alongside it (see reference.py), which
cancels the machine's drift in speed; the measured times go into the
context line.  With `--trace 1` it alternates untraced and traced rounds
and reports the per-layer counters and self times of the traced rounds, and
the tracing overhead as the difference of their median wall times.

The output is one line of context (machine, versions, source size, item
count, error rate, output digest, measured times) and, last, one JSON object
with the keys correct, attempted, failed and metrics.  `correct` is false
when an item failed its check, or when rounds of the same seed disagree on
the output digest or on a work counter.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

from reference import REFERENCE_S, reference_s

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOADS = ("verify_grid", "deep_branching", "series_high_order", "super_schur")
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """A process of the benchmark could not run to completion."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # every call passes --order; a stray default must not leak in
    env.pop("OSPDIM_ORDER", None)
    return env


def _run(cmd: list[str]) -> str:
    try:
        proc = subprocess.run(
            cmd, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[1]} did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def setup_time() -> tuple[float, float]:
    """Time of one fresh interpreter importing ospdim.cli, and the mean of
    the reference times taken just before and after it."""
    ref_before = reference_s()
    start = perf_counter()
    _run([sys.executable, "-c", "import ospdim.cli"])
    elapsed = perf_counter() - start
    return elapsed, (ref_before + reference_s()) / 2


def run_worker(workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--trace", str(int(trace))]
    return json.loads(_run(cmd).splitlines()[-1])


def run_rounds(
    workload: str, seed: int, seconds: float, cycle: tuple[bool, ...]
) -> tuple[list[dict], list[tuple[float, float]]]:
    """Run cycles of one set-up probe and one worker per entry of cycle
    (True = traced) until the next cycle would end after the deadline;
    always at least one.  Spreading the probes over the run, instead of
    bunching them, keeps a short slow spell of the machine from setting the
    set-up time.  Returns the rounds and at least SETUP_PROBES probes."""
    deadline = perf_counter() + seconds
    rounds: list[dict] = []
    setup: list[tuple[float, float]] = []
    cycle_s: list[float] = []
    while True:
        start = perf_counter()
        setup.append(setup_time())
        for trace in cycle:
            rounds.append(run_worker(workload, seed, trace) | {"traced": trace})
        cycle_s.append(perf_counter() - start)
        if perf_counter() + statistics.median(cycle_s) > deadline:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_time())
    return rounds, setup


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaled(seconds: float, ref_s: float) -> float:
    """A time measured alongside a reference time of ref_s, scaled to the
    reference speed (see reference.py)."""
    return seconds / ref_s * REFERENCE_S


def end_to_end(
    rounds: list[dict], setup: list[tuple[float, float]]
) -> dict[str, tuple[float, str]]:
    items = [scaled(t, r["ref_s"]) for r in rounds for t in r["item_s"]]
    return {
        "wall_s": (statistics.median(scaled(r["wall_s"], r["ref_s"]) for r in rounds), "s"),
        "item_ms_p50": (percentile(items, 50) * 1000, "ms"),
        "item_ms_p90": (percentile(items, 90) * 1000, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        "setup_s": (statistics.median(scaled(t, ref) for t, ref in setup), "s"),
    }


def measured_times(rounds: list[dict], setup: list[tuple[float, float]]) -> dict[str, float]:
    """The same timings unscaled, and the reference times, for the context
    line."""
    items = [t for r in rounds for t in r["item_s"]]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "item_ms_p50": percentile(items, 50) * 1000,
        "item_ms_p90": percentile(items, 90) * 1000,
        "setup_s": statistics.median(t for t, _ in setup),
        "reference_s": statistics.median(r["ref_s"] for r in rounds),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    for name, value in traced[0]["counters"].items():
        out[name] = (value, "ratio" if name.endswith("_ratio") else "count")
    for name in traced[0]["self_s"]:
        out[name] = (statistics.median(scaled(r["self_s"][name], r["ref_s"]) for r in traced), "s")
    traced_wall = statistics.median(scaled(r["wall_s"], r["ref_s"]) for r in traced)
    untraced_wall = statistics.median(scaled(r["wall_s"], r["ref_s"]) for r in untraced)
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return out


def machine_context() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        click_version = metadata.version("click")
    except metadata.PackageNotFoundError:
        click_version = None
    src_lines = 0
    for path in sorted((SRC / "ospdim").glob("*.py")):
        with open(path, encoding="utf-8") as f:
            src_lines += sum(1 for _ in f)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "click": click_version,
        "ospdim_src_lines": src_lines,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "ospdim" / "__init__.py").is_file():
        print(f"error: no ospdim sources under {SRC}", file=sys.stderr)
        return 2

    try:
        cycle = (False, True) if args.trace else (False,)
        rounds, setup = run_rounds(args.workload, args.seed, args.seconds, cycle)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    attempted = sum(r["attempted"] for r in rounds)
    mismatches = sum(r["mismatches"] for r in rounds)
    crashes = sum(r["crashes"] for r in rounds)
    digests = {r["digest"] for r in rounds}
    counters_repeat = all(r["counters"] == traced[0]["counters"] for r in traced)
    correct = mismatches == crashes == 0 and len(digests) == 1 and counters_repeat
    if args.trace:
        metrics = per_layer(traced, untraced)
    else:
        metrics = end_to_end(rounds, setup)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "items_per_round": rounds[0]["attempted"],
        "error_rate": (mismatches + crashes) / attempted,
        "mismatches": mismatches,
        "crashes": crashes,
        "digests": sorted(digests),
        "counters_repeat": counters_repeat,
        "measured_untraced": measured_times(untraced, setup),
        "machine": machine_context(),
    }
    print(json.dumps({"context": context}))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": mismatches + crashes,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
