"""The reference job: how fast the machine runs Python right now.

A shared virtual machine can run Python some 30% faster or slower from one
second to the next, and for minutes at a time (seen on a 2-vCPU Xeon guest).
Raw times then spread more between runs than any change worth catching.
So the benchmark times this fixed job next to everything it measures, and
reports each time scaled to a machine on which the job takes REFERENCE_S:

    scaled = measured * REFERENCE_S / reference time taken alongside

A change to ospdim moves the measured time and leaves the reference alone;
a slow spell of the machine moves both.  The job shares no code with ospdim
but does the same kinds of work: exact rational sums, and a recursive
partition enumeration with integer products.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# about the job's median time on the 2-vCPU Xeon guest the benchmark was
# defined on, so scaled times read close to that machine's seconds
REFERENCE_S = 0.025


def _partitions(n: int, cap: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _job() -> tuple[Fraction, int]:
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i % 7 - 3, i % 11 + 1)
    total = 0
    for lam in _partitions(28, 28):
        prod = 1
        for i, part in enumerate(lam):
            prod = prod * (part + i + 1) // (i + 1)
        total += prod
    return acc, total


def reference_s() -> float:
    """Time of one run of the job.  The collector is off while it runs, so
    the heap of the process that calls it cannot slow it."""
    gc.disable()
    try:
        start = perf_counter()
        _job()
        return perf_counter() - start
    finally:
        gc.enable()
