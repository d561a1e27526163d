"""Pieces shared by run.py and its child processes.

Standard library only: run.py imports this module without importing measura,
so that measura's import time is paid (and timed) in the children.
"""

from __future__ import annotations

import csv
import hashlib
import math
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter

# Verdicts of a Monte Carlo gate at 3 standard errors: a correct simulator
# trips such a gate on about 0.3 % of seeds per test, so a tripped gate is
# counted as a failed check but does not make the run incorrect.
STATISTICAL_VERDICTS = {"tail_matches_within_3se"}

CLI_WORKLOADS = ("cli-light", "excursion-tail")
# cli-light runs all but the last; excursion-tail runs the last.
CLI_COMMANDS = (
    "levy-recover",
    "levy-converge",
    "random-measure",
    "fragmentation",
    "sw-approx",
    "prohorov-oracle",
    "excursion",
)
PROHOROV_SIZES = range(2, 15)
# excursion-tail: paths per lifetime threshold (the command runs three).
EXCURSION_TAIL_PATHS = 5000

# Span name -> per-layer metric that receives the span's self time.  Spans are
# named after the attribute the benchmark wrapped, i.e. the name the caller
# uses.  The CLI runner span is named "measura.cli.run[<command>]"; its metric
# cli.run_s.<command> is the command's whole run time, children included.
SPAN_LAYER = {
    "import": "cli.import_s",
    "measura.cli.emit": "cli.emit_s",
    "measura.metric_core.MetricStructure.dist": "metric_core.dist_s",
    "measura.metric_core.sample_metric_axioms": "metric_core.axioms_s",
    "measura.cli.prohorov_distance": "measures.prohorov_s",
    "measura.measures.prohorov_distance": "measures.prohorov_s",
    "measura.cli.prohorov_distance_bruteforce": "measures.oracle_s",
    "measura.measures.prohorov_distance_bruteforce": "measures.oracle_s",
    "measura.cli.weak_sharp_report": "measures.weak_sharp_s",
    "measura.measures.weak_sharp_report": "measures.weak_sharp_s",
    "measura.cli.stone_weierstrass_p0": "algebra.sw_s",
    "measura.algebra.stone_weierstrass_p0": "algebra.sw_s",
    "measura.algebra.CubePolynomial.evaluate": "algebra.evaluate_s",
    "measura.cli.recover_C": "levy.recover_s",
    "measura.cli.recover_b": "levy.recover_s",
    "measura.cli.recover_b_measure": "levy.recover_s",
    "measura.levy.recover_C": "levy.recover_s",
    "measura.levy.recover_b": "levy.recover_s",
    "measura.levy.recover_b_measure": "levy.recover_s",
    "measura.cli.empirical_lhs": "excursion.lhs_s",
    "measura.excursion.empirical_lhs": "excursion.lhs_s",
    "measura.excursion.eval_functional": "excursion.eval_s",
    "measura.excursion.target_rhs": "excursion.target_rhs_s",
    "measura.excursion.excursion_metric": "excursion.metric_s",
}
for _command in CLI_COMMANDS:
    SPAN_LAYER[f"measura.cli.run[{_command}]"] = f"cli.run_s.{_command}"

COUNTERS = (
    "metric_core.dist_calls",
    "measures.prohorov_calls",
    *(f"measures.prohorov_calls.n{n:02d}" for n in PROHOROV_SIZES),
    "algebra.sw_degree",
    "levy.psi_calls",
    "levy.laplace_calls",
    "excursion.paths",
    "excursion.eval_calls",
    "excursion.bessel_paths",
    "excursion.metric_calls",
)
TIMED_LAYERS = tuple(dict.fromkeys(SPAN_LAYER.values()))


def cli_argvs(workload: str, seed: int, workdir: Path) -> list:
    """(command, CLI arguments) of one iteration of a CLI workload."""
    if workload == "excursion-tail":
        commands = [("excursion", ["--seed", str(seed), "--n-paths", str(EXCURSION_TAIL_PATHS)])]
    else:
        commands = [(c, ["--seed", str(seed)] if c == "prohorov-oracle" else []) for c in CLI_COMMANDS[:-1]]
    return [(c, ["--command", c, *extra, "--out", str(workdir / f"{c}.csv")]) for c, extra in commands]


class Tracer:
    """In-memory spans and counters for one child process.

    A span is [name, start, end, parent index]; the child's run id groups them.
    Patching replaces a module or class attribute with a wrapper that records
    a span around every call; ``restore`` puts the originals back.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def record(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent])

    def wrap(self, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of the call's args.

        ``before(args, kwargs)`` may return replacement (args, kwargs), for
        example to count calls of a callable argument; ``after(result, args)``
        sees the result.
        """

        def wrapped(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            label = name(args) if callable(name) else name
            self.spans.append([label, 0.0, 0.0, parent])
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
            if after is not None:
                after(result, args)
            return result

        return wrapped

    def counted(self, counter: str, fn):
        """Wrap a callable so that each call adds one to ``counter``."""

        def wrapped(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapped

    def patch(self, owner, attr: str, name, before=None, after=None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, before, after))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def layer_times(spans: list[list]) -> dict[str, float]:
    """Self time per layer: each span's duration minus its children's durations.

    The exception is cli.run_s.<command>, the whole run of one command.  Spans
    of one process run on one thread, so children never overlap and the
    time they cover is the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = dict.fromkeys(TIMED_LAYERS, 0.0)
    for (name, start, end, _), covered in zip(spans, child_time):
        layer = SPAN_LAYER.get(name)
        if layer is not None:
            out[layer] += (end - start) - (0.0 if layer.startswith("cli.run_s.") else covered)
    return out


def median(values):
    return statistics.median(values) if values else math.nan


def check_cli_output(command: str, code: int, text: str, out_path: Path) -> tuple[list, dict]:
    """Checks on one CLI command: exit status, verdict lines, result file.

    Returns (checks, info); a check is (name, status) with status "pass",
    "fail" (the output is wrong) or "stat-fail" (a Monte Carlo gate tripped).
    """
    checks = []
    info: dict = {}
    verdicts = [line.split(None, 1) for line in text.splitlines() if line.startswith(("PASS ", "FAIL "))]
    crashed = "Traceback" in text or code not in (0, 1)
    checks.append((f"{command}:ran", "fail" if crashed or not verdicts else "pass"))
    for tag, name in verdicts:
        name = name.strip()
        status = "pass" if tag == "PASS" else ("stat-fail" if name in STATISTICAL_VERDICTS else "fail")
        checks.append((f"{command}:{name}", status))
    if code == 1 and all(tag == "PASS" for tag, _ in verdicts):
        checks.append((f"{command}:exit-status", "fail"))
    if not out_path.is_file():
        checks.append((f"{command}:file", "fail"))
        return checks, info
    with out_path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    ok = bool(rows)
    if command == "prohorov-oracle" and ok:
        worst = max(abs(float(r["fast"]) - float(r["oracle"])) for r in rows)
        info["prohorov_worst_diff"] = worst
        ok = worst < 1e-4
    if command == "excursion" and ok:
        ok = len(rows) == 3
        info["excursion_z"] = [(float(r["lhs"]) - float(r["target"])) / float(r["se"]) for r in rows]
    checks.append((f"{command}:file", "pass" if ok else "fail"))
    info[f"{command}:sha256"] = hashlib.sha256(out_path.read_bytes()).hexdigest()
    return checks, info
