"""One benchmark iteration in a fresh interpreter.

Started by run.py; not meant to be run by hand.  The child imports measura,
generates the workload's inputs from the seed, prints READY (the parent's
clock at that line gives setup_s), then, with --run 1, runs the workload once,
checks its outputs and writes a JSON result to --result.  With --run 0 it only
writes the generated inputs (the CLI argument lists that the parent then runs
as subprocesses).  With --trace 1 it wraps measura's public functions in spans
and counters and writes those too.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

from common import Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    start = perf_counter()
    import measura.cli  # noqa: F401  (the import is what is timed)

    if tracer is not None:
        tracer.record("import", start, perf_counter())

    import workloads

    inputs = workloads.prepare(args.workload, args.seed, args.workdir, tracer)
    print("READY", flush=True)

    result: dict = {"argvs": inputs.get("argvs")}
    if args.run:
        if tracer is not None:
            workloads.instrument(tracer)
        start = perf_counter()
        checks, info = workloads.run(args.workload, inputs)
        result["wall_s"] = perf_counter() - start
        result["checks"] = checks
        result["info"] = info
        if tracer is not None:
            tracer.restore()
            result["spans"] = tracer.spans
            result["counts"] = dict(tracer.counts)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
