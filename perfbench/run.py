"""measura's benchmark: one command per workload run, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``; nothing is installed or built).  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Workloads (all closed loop: one caller waits for each result before the
next; every iteration is a fresh child process, one at a time):

* ``cli-light``: the six non-Monte-Carlo commands, each a fresh process
  started as the ``measura`` script starts it (``launch.py``;
  prohorov-oracle takes ``--seed``).  Start-up and import are most of each
  command, so import work shows here, and it is the only place Prokhorov
  runs at 8 atoms or fewer.
* ``excursion-tail``: ``measura --command excursion --seed N`` at
  5000 paths per threshold, default single worker.  Killed-Brownian
  simulation is nearly all the time; no target kernel, no Prokhorov.
* ``excursion-functional``: criterion 09's functional in one child:
  ``empirical_lhs`` (5000 killed paths, window integrals along each) and
  ``target_rhs`` (2000 Bessel paths, dt 5e-3, r_grid linspace(0, 8, 200)).
* ``measure-space``: exact kernels in one child: Prokhorov and the M_f
  metric on pairs with 10-14 atoms, the brute-force oracle on one pair per
  size, ``stone_weierstrass_p0`` at arity 2, ``sample_metric_axioms`` on four
  metrics (the excursion metric among them), and Levy recovery.

End-to-end metrics (``--trace 0``), medians over the iterations of the run.
The shared hosts this runs on change speed by tens of percent within
seconds to minutes, so the two times are scaled to a reference speed: every
measured process (a child, a CLI command) has a run of ``calibrate.py`` (a
fixed script: interpreter start, the numpy and scipy imports measura uses,
then pure-Python and numpy loops) just before and just after it.  Slowness is
a calibration time over its reference time (START_REF_S, LOOPS_REF_S),
averaged over the two calibrations.  Start-up and import time (up to the
process's READY line) is divided by the start-up slowness, the rest by the
geometric mean of the start-up and loop slowness: measura's kernels mix
interpreter and numpy work, which the loops track, with allocation- and
page-fault-heavy work, which start-up tracks, and on the 2-vCPU host the
baseline ran on neither alone followed every workload (the loops' speed
alone swung by a third while the excursion workloads' did not).  A change to measura moves the scaled times in proportion to
the unscaled ones; the unscaled medians are printed as information.

* ``wall_ref_s``: time to a verified verdict for one iteration, scaled.  For
  the CLI workloads, the sum of the subprocess wall times (interpreter start
  and import included); for the in-process ones, the timed calls after
  set-up.  On excursion-tail, paths per second are 15000 / (unscaled wall).
* ``setup_s``: fresh interpreter and ``import measura.cli`` (and, in a
  child, input generation), up to the READY line of a child or CLI command,
  scaled; at least three per run.
* ``peak_rss_mb``: peak resident memory of the child; for CLI workloads
  the largest over the iteration's subprocesses.
* ``passed_frac``: checks passed over checks attempted (failed_frac is one
  minus this; the counts are ``attempted`` and ``failed``).

A check fails on a nonzero exit, a traceback, a FAIL verdict, an oracle
mismatch, or a result that differs between iterations of one seed.  Only a
tripped Monte Carlo 3-SE gate leaves ``correct`` true: it is counted in
``failed`` and printed, since a correct simulator trips it on a small share
of seeds.

``--trace 1`` runs the workload in-process (CLI commands through
``measura.cli.main``), alternating untraced and traced children, and prints
the per-layer metrics: self times of spans wrapped around measura's public
functions, deterministic counters (checked to repeat exactly between traced
children), and ``trace.overhead_s`` = traced minus untraced wall time.  Spans are
written to ``perfbench/results/spans-<workload>-seed<N>.json``, and every run
writes its full record, with the environment, to ``perfbench/results/``.

Seeds: 1-10 were used while writing the benchmark; 7919 was not, so later
claims can be checked on it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from common import (CLI_WORKLOADS, COUNTERS, EXCURSION_TAIL_PATHS, TIMED_LAYERS, check_cli_output, cli_argvs,
                    layer_times, median)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-light", "excursion-tail", "excursion-functional", "measure-space")
MIN_ITERATIONS = 2
MIN_TRACE_CHILDREN = 4  # two untraced, two traced
MIN_SETUPS = 3
STOP_STARTING_AFTER_S = 100.0  # keeps a run well inside 180 s on a slow machine
CHILD_TIMEOUT_S = 120.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "passed_frac": "ratio"}
# Times are reported at the speed at which calibrate.py's parts take these
# times (about their times on the 2-vCPU host the baseline ran on): start-up
# and imports of its light and full parts, and its loops.
START_REF_S = {"light": 0.1, "full": 0.9}
LOOPS_REF_S = 0.26


def child_env() -> dict:
    """The caller's environment with measura from src/, one BLAS thread and no worker override.

    The parent only waits while a child runs, so at most one process and one
    thread do work at a time, within nproc on any machine.
    """
    env = {k: v for k, v in os.environ.items() if k != "MEASURA_WORKERS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def spawn(argv: list, env: dict):
    """Run one process; returns (wall_s, ready_s, peak_rss_mb, exit code, output)."""
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    ready = None
    lines = []
    try:
        for line in proc.stdout:
            if ready is None and line == b"READY\n":
                ready = perf_counter() - start
            else:
                lines.append(line)
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, ready, usage.ru_maxrss / 1024.0, proc.returncode, b"".join(lines).decode(errors="replace")


class Run:
    def __init__(self, workload: str, seed: int, workdir: Path, calibrated: bool):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = child_env()
        self.children = 0
        self.calibrated = calibrated
        self.calibrations: list = []  # (part, start-up s, loops s)
        self.slowness = None  # (start-up, loops) time of the latest calibration over its reference

    def calibrate(self) -> None:
        """Run the next calibrate.py part as a fresh process."""
        part = ("light", "full")[len(self.calibrations) % 2]
        _, ready, _, code, text = spawn([sys.executable, str(HERE / "calibrate.py"), part], self.env)
        if code != 0 or ready is None:
            raise RuntimeError(f"calibrate.py {part} exited {code}:\n{text}")
        loops = float(text.split()[0])
        self.calibrations.append((part, ready - loops, loops))
        self.slowness = ((ready - loops) / START_REF_S[part], loops / LOOPS_REF_S)

    def measure(self, argv: list):
        """spawn() between two calibrations; returns its result and the slowness around it.

        Every measured process has a calibration just before and just after
        it (shared with its neighbours), so the scaling follows the host's
        speed as it changes within a run.  Slowness is returned as (start-up,
        run): the run slowness is the geometric mean of start-up and loops.
        """
        if not self.calibrated:
            return spawn(argv, self.env), None
        if self.slowness is None:
            self.calibrate()
        before = self.slowness
        result = spawn(argv, self.env)
        self.calibrate()
        start, loops = ((a + b) / 2 for a, b in zip(before, self.slowness))
        return result, (start, math.sqrt(start * loops))

    def child(self, run: bool, trace: bool) -> dict:
        """One child iteration; returns its record (see child.py)."""
        self.children += 1
        run_id = f"{self.workload}-{self.seed}-{self.children}"
        result = self.workdir / f"{run_id}.json"
        argv = [sys.executable, str(HERE / "child.py"), "--workload", self.workload, "--seed", str(self.seed),
                "--run", str(int(run)), "--trace", str(int(trace)),
                "--workdir", str(self.workdir), "--result", str(result)]
        (wall, ready, rss, code, text), slowness = self.measure(argv)
        rec = {"run_id": run_id, "traced": trace, "setup_s": ready, "rss_mb": rss, "slowness": slowness,
               "checks": [], "info": {}}
        if code != 0 or ready is None or not result.is_file():
            rec["checks"].append((f"child:{run_id}", "fail"))
            rec["error"] = text[-4000:]
            return rec
        rec.update(json.loads(result.read_text()))
        result.unlink()
        if slowness is not None:
            rec["setups"] = [(ready, ready / slowness[0])]
            if "wall_s" in rec:
                rec["wall_ref_s"] = rec["wall_s"] / slowness[1]
        return rec

    def cli_iteration(self) -> dict:
        """Each command as a fresh process started like the ``measura`` script (see launch.py).

        A command's start-up and import (up to launch.py's READY line) is a
        set-up sample; it and the command's run are scaled separately.
        """
        self.children += 1
        rec = {"run_id": f"{self.workload}-{self.seed}-{self.children}", "traced": False, "setups": [],
               "checks": [], "info": {}}
        wall, wall_ref, rss = 0.0, 0.0, 0.0
        for command, argv in cli_argvs(self.workload, self.seed, self.workdir):
            out = Path(argv[-1])
            out.unlink(missing_ok=True)
            (w, ready, r, code, text), (start_slow, run_slow) = self.measure(
                [sys.executable, str(HERE / "launch.py"), *argv])
            wall += w
            if ready is None:
                wall_ref += w / start_slow
            else:
                wall_ref += ready / start_slow + (w - ready) / run_slow
                rec["setups"].append((ready, ready / start_slow))
            rss = max(rss, r)
            checks, info = check_cli_output(command, code, text, out)
            rec["checks"] += checks
            rec["info"].update(info)
            if any(status == "fail" for _, status in checks):
                rec.setdefault("error", "")
                rec["error"] += text[-2000:]
        rec["wall_s"], rec["wall_ref_s"], rec["rss_mb"] = wall, wall_ref, rss
        return rec

    def iterate(self, seconds: float, trace: bool) -> list:
        """Iterations until the next one would end after ``seconds`` (at least a minimum)."""
        start = perf_counter()
        records, durations = [], []
        minimum = MIN_TRACE_CHILDREN if trace else MIN_ITERATIONS
        while len(records) < minimum or perf_counter() - start + median(durations) <= seconds:
            if records and perf_counter() - start > STOP_STARTING_AFTER_S:
                break
            began = perf_counter()
            if trace:
                records.append(self.child(run=True, trace=len(records) % 2 == 1))
            elif self.workload in CLI_WORKLOADS:
                records.append(self.cli_iteration())
            else:
                records.append(self.child(run=True, trace=False))
            durations.append(perf_counter() - began)
        if not trace:
            setups = sum(len(r.get("setups", ())) for r in records)
            records += [self.child(run=False, trace=False) for _ in range(MIN_SETUPS - setups)]
        return records


def reproducibility_checks(records: list) -> list:
    """Every digest of a seed's results must agree between iterations."""
    seen: dict = {}
    for rec in records:
        for key, value in rec["info"].items():
            if key == "digest" or key.endswith(":sha256"):
                seen.setdefault(key, set()).add(value)
    return [(f"reproducible:{key}", "pass" if len(values) == 1 else "fail") for key, values in sorted(seen.items())]


def environment(env: dict) -> dict:
    probe = ("import json, os, sys, numpy, scipy, measura; "
             "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__, "
             "'scipy': scipy.__version__, 'measura': measura.__version__, 'nproc': os.cpu_count()}))")
    _, _, _, code, text = spawn([sys.executable, "-c", probe], env)
    if code != 0:
        raise RuntimeError(f"cannot import measura from {ROOT / 'src'}:\n{text}")
    record = json.loads(text.strip().splitlines()[-1])
    record["blas_threads"] = {var: env.get(var) for var in BLAS_VARS}
    record["measura_workers_dropped"] = "MEASURA_WORKERS" in os.environ
    record["commit"] = None
    if (ROOT / ".git").exists():  # an exported checkout has no history
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                    timeout=30)
            record["commit"] = commit.stdout.strip() or None
        except OSError:
            pass
    return record


def summarize(workload: str, records: list, calibrations: list, trace: bool) -> tuple[dict, dict]:
    """Metrics (name -> (value, unit)) and information for the printed report."""
    info: dict = {}
    if not trace:
        timed = [r for r in records if "wall_s" in r]
        setups = [pair for r in records for pair in r.get("setups", ())]
        metrics = {
            "wall_ref_s": median([r["wall_ref_s"] for r in timed]),
            "setup_s": median([scaled for _, scaled in setups]),
            "peak_rss_mb": median([r["rss_mb"] for r in timed]),
        }
        info["iterations"] = len(timed)
        info["wall_s"] = median([r["wall_s"] for r in timed])
        info["setup_s_unscaled"] = median([raw for raw, _ in setups])
        for part in START_REF_S:
            info[f"calibration_s.{part}"] = [median([c[i] for c in calibrations if c[0] == part]) for i in (1, 2)]
        info["wall_s_each"] = [round(r["wall_s"], 4) for r in timed]
        if workload == "excursion-tail":
            info["paths_per_s"] = 3 * EXCURSION_TAIL_PATHS / info["wall_s"]
        return {k: (v, UNITS[k]) for k, v in metrics.items()}, info

    traced = [r for r in records if r["traced"] and "wall_s" in r]
    plain = [r for r in records if not r["traced"] and "wall_s" in r]
    metrics = {}
    per_child = [layer_times(r["spans"]) for r in traced]
    for layer in TIMED_LAYERS:
        metrics[layer] = (median([t[layer] for t in per_child]), "s")
    counts = [r["counts"] for r in traced]
    for name in COUNTERS:
        metrics[name] = (counts[0].get(name, 0) if counts else 0, "count")
    metrics["trace.overhead_s"] = (median([r["wall_s"] for r in traced]) - median([r["wall_s"] for r in plain]), "s")
    info["traced_children"] = len(traced)
    info["untraced_children"] = len(plain)
    info["spans_per_child"] = [len(r["spans"]) for r in traced]
    return metrics, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "measura" / "__init__.py").is_file():
        print(f"perfbench: no measura sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be nonnegative", file=sys.stderr)
        return 2

    workdir = HERE / "_work" / str(os.getpid())
    results = HERE / "results"
    workdir.mkdir(parents=True, exist_ok=True)
    results.mkdir(exist_ok=True)
    try:
        run = Run(args.workload, args.seed, workdir, calibrated=not args.trace)
        try:
            env_record = environment(run.env)  # also compiles src/ to bytecode before timing
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        records = run.iterate(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for r in records:
        if "error" in r:
            print(f"error in {r['run_id']}:\n{r['error']}")
    completed = {r["traced"] for r in records if "wall_s" in r}
    if completed != ({False, True} if args.trace else {False}):
        print("perfbench: no iteration completed", file=sys.stderr)
        return 1
    checks = [c for r in records for c in r["checks"]] + reproducibility_checks(records)
    if args.trace:
        traced_counts = [r["counts"] for r in records if r["traced"] and "counts" in r]
        repeat = len(traced_counts) >= 2 and all(c == traced_counts[0] for c in traced_counts)
        checks.append(("trace:counters-repeat", "pass" if repeat else "fail"))
    attempted = len(checks)
    failed = sum(status != "pass" for _, status in checks)
    correct = all(status != "fail" for _, status in checks)
    metrics, info = summarize(args.workload, records, run.calibrations, bool(args.trace))
    if not args.trace:
        metrics["passed_frac"] = ((attempted - failed) / attempted, UNITS["passed_frac"])
    for key in ("z", "lhs", "lhs_se", "rhs", "rhs_se", "excursion_z", "prohorov_worst_diff"):
        values = [r["info"][key] for r in records if key in r["info"]]
        if values:
            info[key] = values[0]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env_record, "calibrations_s": run.calibrations, "correct": correct, "attempted": attempted, "failed": failed,
              "failed_checks": [c for c in checks if c[1] != "pass"], "metrics": metrics, "info": info,
              "children": [{k: v for k, v in r.items() if k not in ("spans", "argvs")} for r in records]}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        spans = {r["run_id"]: r["spans"] for r in records if "spans" in r}
        (results / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))

    print(f"environment {json.dumps(env_record, sort_keys=True)}")
    for name, status in checks:
        if status != "pass":
            print(f"check {status}: {name}")
    for key, value in info.items():
        print(f"info {key} = {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
