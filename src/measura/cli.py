"""Experiment harness: each worked example as a reproducible command.

Each claim is computed by one claim function (``<command>_claim``) that takes
explicit inputs and returns (rows, verdicts); the acceptance criteria call the
same functions with their own inputs.  A command's runner only adapts the
configuration onto its claim function's inputs.  ``functional_claim`` is the
one claim without a command.

One process runs one command, selected with --command; results are written as
CSV (header row, 17-significant-digit decimals, fields with commas quoted) or
JSON ({config, rows, verdicts, meta}).  Each flag sets the ExperimentConfig
field of the same name and takes its default from it; COMMAND_TABLE lists the
fields each command reads, and any other must keep its default.  Identical
configurations, including the seed, reproduce identical output bytes;
wall-clock time is kept on the in-memory result only, never in the emitted
file.  ``excursion`` steps its killed paths at 0, t and 2t only, where its
claim is exact, so no command takes a simulation step.

Start-up: each claim function imports what it reads from its home module
when it is called, so ``import measura.cli`` loads ``metric_core`` alone and
a command loads only the modules its claim runs.  The functions perfbench
reads as ``measura.cli.<name>`` resolve to those home-module functions on
access, through the module ``__getattr__``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import numbers
import os
import sys
import time
from dataclasses import dataclass
from importlib import import_module
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .metric_core import NonConvergenceError, real_line

if TYPE_CHECKING:
    from .levy import RandomMeasureLaw

# Functions perfbench reads as measura.cli.<name> (it patches them and names
# its spans after them); each resolves, on access, to its home module's
# function, which is the one the claims import and call.
_HOME = {
    "empirical_lhs": "excursion",
    "prohorov_distance": "measures",
    "prohorov_distance_bruteforce": "measures",
    "recover_C": "levy",
    "recover_b": "levy",
    "recover_b_measure": "levy",
    "stone_weierstrass_p0": "algebra",
    "weak_sharp_report": "measures",
}


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__package__}.{_HOME[name]}"), name)

FORMATS = ("csv", "json")
EXCURSION_TIMES = (0.5, 1.0, 2.0)  # the lifetime thresholds t of the excursion claim


class UsageError(ValueError):
    """Invalid configuration; the message names the failing field."""


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    seed: int | None = None
    eps: float = 0.01
    n_paths: int | None = None  # the command's own default, N_PATHS_DEFAULT, when it reads n_paths
    m_max: float = 1e3
    tol: float = 1e-2
    out: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.n_paths is None and self.command in COMMANDS:
            object.__setattr__(self, "n_paths", N_PATHS_DEFAULT.get(self.command))

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise UsageError(f"command: must be one of {', '.join(COMMANDS)}")
        if self.format not in FORMATS:
            raise UsageError(f"format: must be one of {', '.join(FORMATS)}")
        settable = ("command", "out", "format", *COMMAND_TABLE[self.command].reads)
        for field in dataclasses.fields(self):
            if field.name not in settable and getattr(self, field.name) != field.default:
                raise UsageError(f"{field.name.replace('_', '-')}: not read by {self.command}")
        for name, value in (("seed", self.seed), ("n-paths", self.n_paths)):
            if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
                raise UsageError(f"{name}: must be an int, not {type(value).__name__}")
        if self.command in STOCHASTIC_COMMANDS and self.seed is None:
            raise UsageError(f"seed: required for stochastic command {self.command!r}")
        if self.seed is not None and not (0 <= self.seed < 2**64):
            raise UsageError("seed: must be an unsigned 64-bit integer")
        for name, value in (("eps", self.eps), ("m-max", self.m_max), ("tol", self.tol)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise UsageError(f"{name}: must be a number, not {type(value).__name__}")
            if not (value > 0.0 and math.isfinite(value)):
                raise UsageError(f"{name}: must be positive and finite")
        if self.command == "sw-approx" and not (self.m_max >= 1.0 and self.m_max == int(self.m_max)):
            raise UsageError("m-max: the sw-approx degree budget must be a whole number, at least 1")
        if self.n_paths is not None and self.n_paths < 1:
            raise UsageError("n-paths: must be at least 1")
        if self.command == "excursion" and self.n_paths < 100:
            raise UsageError("n-paths: excursion needs at least 100 paths")
        if self.command == "prohorov-oracle" and self.n_paths > N_PATHS_DEFAULT["prohorov-oracle"]:
            raise UsageError(f"n-paths: prohorov-oracle runs at most {N_PATHS_DEFAULT['prohorov-oracle']} instances")
        if os.path.isdir(self.out_path):
            raise UsageError(f"out: {self.out_path!r} is a directory")
        if not os.path.isdir(os.path.dirname(self.out_path) or "."):
            raise UsageError(f"out: directory of {self.out_path!r} does not exist")

    @property
    def out_path(self) -> str:
        return self.out or f"{self.command}.{self.format}"

    def echo(self) -> dict:
        keep = ("command", "format", *COMMAND_TABLE[self.command].reads)
        return {k: v for k, v in dataclasses.asdict(self).items() if k in keep}


@dataclass
class ExperimentResult:
    config: dict
    rows: list[dict]
    verdicts: dict[str, bool]
    wall_clock_s: float

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())


# ---------------------------------------------------------------------------
# Claim functions: explicit inputs in, (rows, verdicts) out
# ---------------------------------------------------------------------------


def levy_recover_claim(m_max: float, tol: float):
    from .levy import LevyTriple, default_m_schedule, levy_ground_space, psi_exponent, recover_C, recover_b
    from .measures import AtomicMeasure

    space = levy_ground_space(2)
    mu = AtomicMeasure.from_atoms(space, [((1.5, -0.4), 0.8), ((0.3, 0.2), 0.5), ((4.0, 1.0), 0.2)])
    triple = LevyTriple(np.array([0.5, -0.25]), np.array([[2.0, 1.0], [1.0, 3.0]]), mu)
    schedule = default_m_schedule(m_max)
    psi = lambda u: psi_exponent(triple, u)
    C_hat = recover_C(psi, 2, schedule)
    b_hat = recover_b(psi, C_hat, 2, schedule, compensator_moment=triple.compensator_moment())
    rows = []
    for k in range(2):
        for j in range(2):
            rows.append({"entry": f"C[{k},{j}]", "true": triple.C[k, j], "recovered": C_hat[k, j],
                         "abs_err": abs(triple.C[k, j] - C_hat[k, j])})
    for k in range(2):
        rows.append({"entry": f"b[{k}]", "true": triple.b[k], "recovered": b_hat[k],
                     "abs_err": abs(triple.b[k] - b_hat[k])})
    worst = max(r["abs_err"] for r in rows)
    return rows, {"recovered_within_tol": worst < tol}


def levy_converge_claim(pair_seed: int):
    """delta_{1+1/n} -> delta_1 under 20 F_u*F_v members, (u, v) drawn from pair_seed."""
    from .levy import levy_family
    from .measures import AtomicMeasure, weak_sharp_report

    rng = np.random.default_rng(pair_seed)
    pairs = [(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1)) for _ in range(20)]
    fam = levy_family(1, pairs)
    ns = [1, 10, 100, 1000, 10_000]
    seq = [AtomicMeasure.dirac(fam.space, 1.0 + 1.0 / n) for n in ns]
    report = weak_sharp_report(seq, AtomicMeasure.dirac(fam.space, 1.0), fam, tol=1e-3)
    max_gaps = [max(g[i] for _, g in report.member_gaps) for i in range(len(ns))]
    rows = [{"n": n, "max_gap": g} for n, g in zip(ns, max_gaps)]
    return rows, {"gaps_below_1e-3_at_n_1e4": report.converged}


def random_measure_claim(law: RandomMeasureLaw, identity_samples, schedule: Sequence[float]):
    """F_phi product identity on each (phi, psi, nu-weights) sample over law.ground_set,
    and recovery of the drift b from the Laplace functional along schedule."""
    from .levy import f_phi_family, finite_ground_space, laplace_functional, recover_b_measure
    from .measures import AtomicMeasure

    labels = law.ground_set
    ground = finite_ground_space(labels)
    worst_identity = 0.0
    for phi_v, psi_v, weights in identity_samples:
        nu = AtomicMeasure.from_atoms(ground, list(zip(labels, weights)))
        fam = f_phi_family(labels, [lambda e, v=v: v[labels.index(e)] for v in (phi_v, psi_v, phi_v + psi_v)])
        fp, fq, fpq = (m(nu).real for m in fam.members)
        worst_identity = max(worst_identity, abs(fp * fq - (fp + fq - fpq)))
    b_hat = recover_b_measure(lambda f: laplace_functional(law, f), labels, schedule)
    recovered = {**dict.fromkeys(labels, 0.0), **dict(b_hat.atoms)}
    truth = {**dict.fromkeys(labels, 0.0), **dict(law.b.atoms)}
    rows = [{"label": e, "true_b": truth[e], "recovered_b": recovered[e],
             "abs_err": abs(truth[e] - recovered[e])} for e in labels]
    ok_b = max(r["abs_err"] for r in rows) < 1e-3
    rows.append({"label": "product-identity", "true_b": 0.0, "recovered_b": worst_identity,
                 "abs_err": worst_identity})
    return rows, {"product_identity_1e-12": worst_identity < 1e-12, "b_recovered_1e-3": ok_b}


def excursion_claim(eps: float, n_paths: int, seeds: Sequence[int]):
    """(1/eps) P_eps(lifetime > t) against sqrt(2/(pi t)) at each t of EXCURSION_TIMES, seeds[i] for the i-th t.

    1{lifetime > t} is read at t only, so the paths are stepped at 0, t and 2t
    (dt = t, horizon 2t), and the survivor count at t is exactly
    Binomial(n_paths, erf(eps / sqrt(2t))) under the bridge kill.  A kill in
    (t, 2t] gives h = 1, as survival does, so the second step decides nothing.
    """
    from .excursion import ExcursionFunctional, empirical_lhs, step_indicator

    rows = []
    ok = True
    for t, seed in zip(EXCURSION_TIMES, seeds):
        F = ExcursionFunctional(h=step_indicator(t), h_constant_after=t)
        lhs, se = empirical_lhs(F, eps, n_paths, t, horizon=2 * t, seed=seed)
        target = math.sqrt(2.0 / (math.pi * t))
        rows.append({"t": t, "lhs": lhs, "se": se, "target": target, "ratio": lhs / target})
        ok = ok and abs(lhs - target) <= 3.0 * se
    return rows, {"tail_matches_within_3se": ok}


def functional_claim(eps: float, n_paths: int, n_bessel: int, seeds: Sequence[int]):
    """(1/eps) E_eps[F] by killed paths against the excursion-measure target of F, within 3 combined SEs.

    F = h(zeta) ∫ f(t) g(e(t)) dt with h = smoothed_cutoff(1, 1) (constant
    from 2 on), f = smoothed_bump(0.5, 1.5, 0.1) and g = min(x, 1).  The lhs
    steps n_paths paths at dt 1e-4 up to horizon 2 from seeds[0]; the
    ``target_rhs`` target steps n_bessel Bessel paths at dt 5e-3 from seeds[1].
    No command runs this claim; criterion 09 does.
    """
    from .excursion import ExcursionFunctional, empirical_lhs, smoothed_bump, smoothed_cutoff, target_rhs

    F = ExcursionFunctional(h=smoothed_cutoff(1.0, 1.0), h_constant_after=2.0,
                            pairs=((smoothed_bump(0.5, 1.5, 0.1), 1.5, lambda x: np.minimum(x, 1.0)),))
    lhs, lhs_se = empirical_lhs(F, eps, n_paths, dt=1e-4, horizon=2.0, seed=seeds[0])
    rhs, rhs_se = target_rhs(F, n_bessel, dt=5e-3, r_grid=np.linspace(0.0, 8.0, 200), seed=seeds[1])
    combined = math.hypot(lhs_se, rhs_se)
    rows = [{"lhs": lhs, "lhs_se": lhs_se, "rhs": rhs, "rhs_se": rhs_se, "z": (lhs - rhs) / combined}]
    return rows, {"lhs_matches_target_within_3se": abs(lhs - rhs) <= 3.0 * combined}


def fragmentation_claim(ns: Sequence[int]):
    """The G_1 discontinuity witness: G_1 of the uniform n-block state is exactly 1."""
    from .fragmentation import block_uniform_state, g_p

    rows = []
    all_one = True
    for n in ns:
        s = block_uniform_state(n)
        g1 = g_p(s, 1)
        rows.append({"n": n, "G_1": g1, "max_coordinate": 1.0 / n})
        all_one = all_one and g1 == 1.0
    return rows, {"G1_exactly_one": all_one}


def sw_approx_claim(degree_budget: int):
    from .algebra import stone_weierstrass_p0

    def ramp(u):
        return min(max(u, 0.0), 1.0)

    def g(x):
        return x[0] * ramp((x[0] - 0.25) / 0.25)

    eps = 0.05
    poly = stone_weierstrass_p0(g, delta=0.25, eps=eps, degree_budget=degree_budget, arity=1)
    grid = np.linspace(0.0, 1.0, 50)
    errs = np.array([abs(g((x,)) - poly.evaluate((x,))) - eps * x for x in grid])
    rows = [{"degree": poly.degree, "max_excess_over_bound": float(errs.max()),
             "in_p0": int(poly.in_p0())}]
    return rows, {"weighted_bound_holds": bool(np.all(errs <= 1e-12)), "in_p0": poly.in_p0()}


def prohorov_oracle_claim(seed: int, n_instances: int, weight_floor: float):
    """Max flow against the exact brute-force oracle on 1-4-atom pairs at U(-2, 2), weights U(weight_floor, 2)."""
    from .measures import AtomicMeasure, prohorov_distance, prohorov_distance_bruteforce

    rng = np.random.default_rng(seed)
    space = real_line()

    def draw():
        k = int(rng.integers(1, 5))
        return AtomicMeasure.from_atoms(
            space, [(float(rng.uniform(-2, 2)), float(rng.uniform(weight_floor, 2))) for _ in range(k)]
        )

    rows = []
    worst = 0.0
    for i in range(n_instances):
        nu1, nu2 = draw(), draw()
        fast = prohorov_distance(nu1, nu2)
        oracle = prohorov_distance_bruteforce(nu1, nu2)
        diff = abs(fast - oracle)
        worst = max(worst, diff)
        rows.append({"instance": i, "fast": fast, "oracle": oracle, "abs_diff": diff})
    return rows, {"matches_oracle_1e-12": worst < 1e-12}


# ---------------------------------------------------------------------------
# Runners: each maps an ExperimentConfig onto its claim function's inputs
# ---------------------------------------------------------------------------


def _run_random_measure(cfg: ExperimentConfig):
    from .levy import RandomMeasureLaw, finite_ground_space
    from .measures import AtomicMeasure

    labels = ("a", "b", "c")
    ground = finite_ground_space(labels)
    nu1 = AtomicMeasure.from_atoms(ground, [("a", 0.7), ("b", 0.4)])
    nu2 = AtomicMeasure.from_atoms(ground, [("c", 1.1)])
    law = RandomMeasureLaw(
        labels,
        AtomicMeasure.from_atoms(ground, [("a", 0.5), ("c", 2.0)]),
        AtomicMeasure.from_atoms(finite_ground_space(labels), [(nu1, 0.6), (nu2, 0.9)]),
    )
    rng = np.random.default_rng(0)
    samples = [(*rng.uniform(0, 2, (2, len(labels))), rng.uniform(0.1, 2, len(labels))) for _ in range(200)]
    return random_measure_claim(law, samples, [200.0, 400.0, 800.0, 1600.0])


def _run_excursion(cfg: ExperimentConfig):
    # 3 seed + i gives every (root seed, threshold) pair its own stream
    seeds = [3 * cfg.seed + i for i in range(3)]
    return excursion_claim(cfg.eps, cfg.n_paths, seeds)


class Command(NamedTuple):
    runner: Callable[[ExperimentConfig], tuple[list[dict], dict]]
    reads: tuple[str, ...]  # ExperimentConfig fields read besides out and format
    help: str


COMMAND_TABLE = {
    "levy-recover": Command(lambda cfg: levy_recover_claim(cfg.m_max, cfg.tol), ("m_max", "tol"),
        "Levy-Khintchine triple recovery: drift and covariance from a synthetic characteristic exponent."),
    "levy-converge": Command(lambda cfg: levy_converge_claim(pair_seed=0), (),
        "Weak#-convergence of Levy measures delta_{1+1/n} -> delta_1 under sampled F_u*F_v products."),
    "random-measure": Command(_run_random_measure, (),
        "Laplace-functional product identity and drift-measure recovery for infinitely divisible random measures."),
    "excursion": Command(_run_excursion, ("seed", "eps", "n_paths"),
        "Ito excursion measure tail: (1/eps) P_eps(lifetime > t) against sqrt(2/(pi t)) for killed Brownian motion."),
    "fragmentation": Command(lambda cfg: fragmentation_claim((1, 2, 5, 10, 100, 1000)), (),
        "Fragmentation power sums, including the G_1 discontinuity witness on uniform block states."),
    "sw-approx": Command(lambda cfg: sw_approx_claim(int(cfg.m_max)), ("m_max",),
        "Stone-Weierstrass weighted approximation on the cube by polynomials vanishing on the first-coordinate face."),
    "prohorov-oracle": Command(
        lambda cfg: prohorov_oracle_claim(cfg.seed, cfg.n_paths, weight_floor=0.1), ("seed", "n_paths"),
        "Max-flow Prokhorov distance between small atomic measures against subset-enumeration brute force."),
}
COMMANDS = tuple(COMMAND_TABLE)
N_PATHS_DEFAULT = {"excursion": 100_000, "prohorov-oracle": 500}  # prohorov-oracle's is also its cap
STOCHASTIC_COMMANDS = tuple(c for c, cmd in COMMAND_TABLE.items() if "seed" in cmd.reads)


def run(config: ExperimentConfig) -> ExperimentResult:
    """Dispatch to the command implementation and wrap the result.

    A limit schedule or degree escalation that does not converge yields no
    rows and a failed ``converged`` verdict; the reason goes to stderr.
    """
    config.validate()
    start = time.perf_counter()
    try:
        rows, verdicts = COMMAND_TABLE[config.command].runner(config)
    except NonConvergenceError as exc:
        print(f"{config.command}: {exc}", file=sys.stderr)
        rows, verdicts = [], {"converged": False}
    elapsed = time.perf_counter() - start
    rows = [{k: v.item() if isinstance(v, np.generic) else v for k, v in row.items()} for row in rows]
    verdicts = {k: bool(v) for k, v in verdicts.items()}
    return ExperimentResult(config.echo(), rows, verdicts, elapsed)


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def emit(result: ExperimentResult, fmt: str, path: str) -> str:
    """Write the result file; numeric records are byte-reproducible."""
    if fmt == "csv":
        buf = io.StringIO()
        if result.rows:
            keys = list(result.rows[0].keys())
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(keys)
            writer.writerows([_fmt_value(row[k]) for k in keys] for row in result.rows)
        else:
            buf.write("\n")
        payload = buf.getvalue()
    elif fmt == "json":
        doc = {
            "config": result.config,
            "rows": result.rows,
            "verdicts": result.verdicts,
            "meta": {"version": __version__},
        }
        payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        raise UsageError(f"format: unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="measura",
        description="Numerical experiments on boundedly finite measures.",
        epilog="commands, each with the flags it reads besides --out and --format:\n" + "\n".join(
            f"  {c:<16} {cmd.help}\n{'':19}flags: {' '.join('--' + r.replace('_', '-') for r in cmd.reads) or 'none'}"
            for c, cmd in COMMAND_TABLE.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    defaults = ExperimentConfig
    parser.add_argument("--command", required=True, choices=COMMANDS, metavar="CMD",
                        help="experiment to run (see the list below)")
    parser.add_argument("--seed", type=int, default=defaults.seed, help="root seed; required for stochastic commands")
    parser.add_argument("--eps", type=float, default=defaults.eps, help="starting level for killed Brownian motion")
    parser.add_argument("--n-paths", type=int, default=defaults.n_paths,
                        help="excursion: killed paths per threshold, at least 100 (default 100000); "
                             "prohorov-oracle: instances, at most 500 (default 500)")
    parser.add_argument("--m-max", type=float, default=defaults.m_max,
                        help="largest argument in limit schedules / degree budget")
    parser.add_argument("--tol", type=float, default=defaults.tol, help="verdict tolerance")
    parser.add_argument("--out", default=defaults.out, help="output path (default: <command>.<format>)")
    parser.add_argument("--format", choices=FORMATS, default=defaults.format)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ExperimentConfig(**vars(args))
        result = run(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    path = emit(result, config.format, config.out_path)
    for name, ok in result.verdicts.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    print(f"wrote {path} ({len(result.rows)} rows, {result.wall_clock_s:.2f}s, v{__version__})")
    return 0 if result.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
