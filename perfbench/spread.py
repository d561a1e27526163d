"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workloads W ...] [--traced-seed N] [--out FILE]

Runs ``run.py --trace 0`` once per seed and workload, one run at a time, with
``run_seconds`` from BENCHMARK.json, and reports for each metric the median
of the per-run values and the quartile spread (Q3 - Q1) / median, quartiles
as ``statistics.quantiles(values, n=4)`` gives them.  A spread is steady when
it is below a third of the metric's bound.  With ``--traced-seed`` it also
makes two traced runs per workload on that seed, keeps the per-layer metrics
of the first and checks that every counter repeats exactly in the second.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {}
    for workload in args.workloads:
        runs, elapsed, info = [], [], {}
        for seed in args.seeds:
            result, seconds = run(workload, seed, bench["run_seconds"], 0)
            runs.append(result)
            elapsed.append(seconds)
            record = json.loads((HERE / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
            info[seed] = record["info"]
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: {seconds:.1f}s correct={result['correct']} "
                  f"failed={result['failed']} {values}", flush=True)
        metrics = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            metrics[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                             "steady": spread < bound / 3, "values": values}
            print(f"  {name:<12} median {med:10.4f}  spread {spread:6.3f}  bound {bound}  "
                  f"{'steady' if spread < bound / 3 else 'NOT steady'}", flush=True)
        report[workload] = {"seeds": args.seeds, "all_correct": all(r["correct"] for r in runs),
                            "failed": [r["failed"] for r in runs], "run_elapsed_s": elapsed,
                            "metrics": metrics, "info": info}
        if args.traced_seed is not None:
            first, _ = run(workload, args.traced_seed, bench["run_seconds"], 1)
            second, _ = run(workload, args.traced_seed, bench["run_seconds"], 1)
            counts = {k for k, v in first["metrics"].items() if v["unit"] == "count"}
            repeat = all(first["metrics"][k] == second["metrics"][k] for k in counts)
            report[workload]["traced"] = {"seed": args.traced_seed, "correct": [first["correct"], second["correct"]],
                                          "counters_repeat": repeat,
                                          "per_layer": {k: v["value"] for k, v in first["metrics"].items()}}
            print(f"  traced seed {args.traced_seed}: counters repeat across runs: {repeat}", flush=True)
    env_file = HERE / "results" / f"{args.workloads[-1]}-seed{args.seeds[-1]}-trace0.json"
    report["environment"] = json.loads(env_file.read_text())["environment"]
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
