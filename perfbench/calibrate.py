"""A fixed reference workload that measures how fast the machine is right now.

    python3 perfbench/calibrate.py light|full

Imports numpy, runs fixed pure-Python and numpy loops over the kinds of data
measura's kernels use and prints their time in seconds; with ``full`` it then
imports scipy.stats, the import that is most of a short measura command; then
it prints READY.  Start-up is the time to READY less the loops.  The loops run
before the large import because after it their time varies twice as much
(the garbage collector then walks a much larger heap).  run.py runs this
before and after every process it measures, alternating the two parts, and
scales that process's times by the calibrations around it (see run.py), so
that the speed of a shared host, which drifts by tens of percent over
seconds to minutes, largely cancels out of the reported times.  The script
never changes, so a change to measura moves the workloads' times and not
this one.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter

import numpy as np


def python_part() -> float:
    table: dict = {}
    total = 0.0
    for i in range(120_000):
        x = (i * 0.618033988749895) % 1.0
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0.0) + math.sqrt(x) * math.exp(-x)
        total += max(abs(x - 0.5), 0.1) ** 1.5
    pts = sorted(table.items())
    return total + sum(v for _, v in pts)


def numpy_part() -> float:
    rng = np.random.default_rng(12345)
    total = 0.0
    for _ in range(48):
        steps = rng.standard_normal((400, 250))
        paths = np.cumsum(steps, axis=1)
        alive = np.minimum.accumulate(paths > -3.0, axis=1)
        total += float(np.sum(np.abs(paths) * alive)) + float(np.linalg.norm(paths[:50, :50] @ paths[:50, :50].T))
    return total


if __name__ == "__main__":
    if sys.argv[1:] not in (["light"], ["full"]):
        sys.exit(__doc__.split("\n\n")[1])
    start = perf_counter()
    python_part()
    numpy_part()
    print(perf_counter() - start)
    if sys.argv[1] == "full":
        import scipy.stats  # noqa: F401
    print("READY", flush=True)
