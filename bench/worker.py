"""Run one round of a workload in this interpreter and print the result as
one JSON object.  `run.py` starts a fresh worker for every round, so module
caches such as the Littlewood-Richardson cache start cold, as they do for a
command line call.  Needs the package on PYTHONPATH:

    PYTHONPATH=src python3 bench/worker.py --workload verify_grid --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from time import perf_counter

import workloads
from layertrace import Tracer
from reference import reference_s

# how often a round pauses between items to time the reference job
REFERENCE_EVERY_S = 0.25


def run_round(workload: str, seed: int, trace: bool) -> dict:
    items = workloads.build(workload, seed)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    refs = [reference_s()]
    digest = hashlib.sha256()
    item_s = []
    mismatches = crashes = 0
    paused = 0.0
    start = perf_counter()
    ref_due = start + REFERENCE_EVERY_S
    for item in items:
        if perf_counter() >= ref_due:
            pause = perf_counter()
            refs.append(reference_s())
            resumed = perf_counter()
            paused += resumed - pause
            ref_due = resumed + REFERENCE_EVERY_S
        t0 = perf_counter()
        try:
            output = item.run()
        except workloads.Mismatch as exc:
            mismatches += 1
            output = f"mismatch: {exc}"
        except SystemExit as exc:
            # the command line exits 1 on a mismatch verdict; any other
            # code is a usage or internal error
            if exc.code == 1:
                mismatches += 1
            else:
                crashes += 1
            output = f"exit {exc.code}"
        except Exception as exc:
            crashes += 1
            output = f"crash: {type(exc).__name__}: {exc}"
        item_s.append(perf_counter() - t0)
        digest.update(f"{item.label}\n{output}\n".encode())
    wall_s = perf_counter() - start - paused
    refs.append(reference_s())
    result = {
        "wall_s": wall_s,
        "ref_s": statistics.fmean(refs),
        "item_s": item_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": digest.hexdigest(),
        "attempted": len(items),
        "mismatches": mismatches,
        "crashes": crashes,
    }
    if tracer is not None:
        result["counters"] = tracer.counters()
        result["self_s"] = tracer.self_times()
    return result


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_round(args.workload, args.seed, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
