"""Workload inputs, the in-process workloads, and their instrumentation.

Imported by child.py after measura, so that importing this module costs no
measured time.  Inputs come from the workload seed only and are generated
before the timed region; their sizes are fixed, so that the cost of one
iteration does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import math
import traceback
from pathlib import Path

import numpy as np

from measura import algebra, cli, excursion, levy, measures, metric_core
from measura.measures import AtomicMeasure
from measura.metric_core import MetricStructure

from common import CLI_WORKLOADS, check_cli_output, cli_argvs

# excursion-functional: killed paths for the lhs and 3-d Bessel paths for the
# target; criterion 09 uses 100k and 30k, which take about a minute.
LHS_PATHS = 5000
BESSEL_PATHS = 2000
# measure-space: combined support sizes of the Prokhorov pairs, within the
# 14-atom cap of prohorov_distance; the oracle runs on the first of each size.
PAIR_SIZES = (10, 11, 12, 13, 14) * 2
AXIOM_TRIPLES = 2000
SW_EPS = 0.05
SW_GRID = 25


def _traced_space(space: MetricStructure, tracer, span: str, counter: str | None = None) -> MetricStructure:
    """The same metric with its dist wrapped in a span and call counters."""
    if tracer is None:
        return space
    dist = tracer.counted("metric_core.dist_calls", space.dist)
    if counter is not None:
        dist = tracer.counted(counter, dist)
    return MetricStructure(tracer.wrap(span, dist), space.reference_point, space.label)


def _sw_target(x) -> float:
    u = min(max((x[0] - 0.25) / 0.5, 0.0), 1.0)
    return x[0] * u * u * (3.0 - 2.0 * u) * (0.5 + 0.5 * x[1] * x[1])


def _excursion_functional_inputs(seed: int) -> dict:
    lhs_seed, rhs_seed = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    f = excursion.smoothed_bump(0.5, 1.5, 0.1)
    h = excursion.smoothed_cutoff(1.0, 1.0)

    def g(x):
        return np.minimum(np.asarray(x, float), 1.0)

    F = excursion.ExcursionFunctional(h=h, h_constant_after=2.0, pairs=((f, 1.5, g),))
    return {"F": F, "lhs_seed": lhs_seed, "rhs_seed": rhs_seed, "r_grid": np.linspace(0.0, 8.0, 200)}


def _measure_space_inputs(seed: int, tracer) -> dict:
    rng = np.random.default_rng(seed)
    dist_span = "measura.metric_core.MetricStructure.dist"

    line = _traced_space(metric_core.real_line(), tracer, dist_span)

    def draw(k):
        return AtomicMeasure.from_atoms(
            line, [(float(rng.uniform(-2, 2)), float(rng.uniform(0.1, 2.0))) for _ in range(k)]
        )

    pairs = [(draw(n // 2), draw(n - n // 2)) for n in PAIR_SIZES]

    axioms = []
    removal = metric_core.point_removal_metric(metric_core.real_line(), 0.0, reference_point=1.0)
    pts = list(np.concatenate([rng.uniform(0.05, 5, 200), -rng.uniform(0.05, 5, 200)]))
    axioms.append(("point-removal", _traced_space(removal, tracer, dist_span), pts))
    punctured = levy.levy_ground_space(2)
    pts = [x for x in rng.uniform(-3, 3, (300, 2)) if np.max(np.abs(x)) > 0.05]
    axioms.append(("punctured-sup", _traced_space(punctured, tracer, dist_span), pts))
    pts = [tuple(rng.uniform(0.05, 1.0, int(rng.integers(1, 6)))) for _ in range(300)]
    axioms.append(("hilbert-cube", _traced_space(metric_core.hilbert_cube_metric(), tracer, dist_span), pts))
    paths = []
    for _ in range(120):
        dt = float(rng.choice([0.01, 0.02, 0.025]))
        n = int(rng.integers(5, 50))
        vals = np.abs(np.cumsum(rng.standard_normal(n + 1))) * 0.3
        vals[-1] = 0.0
        paths.append(excursion.ExcursionPath(np.arange(n + 1) * dt, vals, zeta=float(n * dt)))
    exc_space = MetricStructure(excursion.excursion_metric, paths[0], "excursion")
    axioms.append(("excursion", _traced_space(exc_space, tracer, "measura.excursion.excursion_metric",
                                              "excursion.metric_calls"), paths))
    axioms = [(name, space, pts, np.random.default_rng(rng.integers(2**63))) for name, space, pts in axioms]

    # Levy triple with jumps outside the unit ball and a positive definite C.
    ground = levy.levy_ground_space(2)
    signs = rng.choice([-1.0, 1.0], (3, 2))
    jumps = [(tuple(s * rng.uniform(1.5, 4.0, 2)), float(rng.uniform(0.2, 1.0))) for s in signs]
    A = rng.uniform(-1.0, 1.0, (2, 2))
    triple = levy.LevyTriple(rng.uniform(-1.0, 1.0, 2), A @ A.T + 0.5 * np.eye(2),
                             AtomicMeasure.from_atoms(ground, jumps))

    labels = ("a", "b", "c", "d", "e")
    fin = levy.finite_ground_space(labels)

    def finite_measure(k):
        chosen = rng.choice(len(labels), k, replace=False)
        return AtomicMeasure.from_atoms(fin, [(labels[i], float(rng.uniform(0.2, 2.0))) for i in chosen])

    law = levy.RandomMeasureLaw(
        labels,
        finite_measure(3),
        AtomicMeasure.from_atoms(levy.finite_ground_space(labels),
                                 [(finite_measure(2), float(rng.uniform(0.3, 1.0))) for _ in range(2)]),
    )
    return {"pairs": pairs, "axioms": axioms, "triple": triple, "law": law, "labels": labels}


def prepare(workload: str, seed: int, workdir: Path, tracer) -> dict:
    """Generate the inputs of one iteration (counted in setup_s)."""
    if workload in CLI_WORKLOADS:
        return {"argvs": cli_argvs(workload, seed, workdir)}
    if workload == "excursion-functional":
        return _excursion_functional_inputs(seed)
    if workload == "measure-space":
        return _measure_space_inputs(seed, tracer)
    raise ValueError(f"unknown workload {workload!r}")


def _status(ok: bool, statistical: bool = False) -> str:
    return "pass" if ok else ("stat-fail" if statistical else "fail")


def _run_cli_inprocess(inputs: dict):
    checks, info = [], {}
    for command, argv in inputs["argvs"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = -1
        c, i = check_cli_output(command, code, buf.getvalue(), Path(argv[-1]))
        checks += c
        info.update(i)
    return checks, info


def _run_excursion_functional(inputs: dict):
    F = inputs["F"]
    lhs, lse = excursion.empirical_lhs(F, eps=0.01, n_paths=LHS_PATHS, dt=1e-4, horizon=2.0,
                                       seed=inputs["lhs_seed"])
    rhs, rse = excursion.target_rhs(F, n_bessel=BESSEL_PATHS, dt=5e-3, r_grid=inputs["r_grid"],
                                    seed=inputs["rhs_seed"])
    values = (lhs, lse, rhs, rse)
    finite = all(math.isfinite(v) for v in values) and lse > 0.0 and rse > 0.0
    z = (lhs - rhs) / math.hypot(lse, rse) if finite else math.nan
    checks = [
        ("excursion-functional:finite", _status(finite)),
        ("excursion-functional:lhs-rhs-within-3se", _status(abs(z) <= 3.0, statistical=True)),
    ]
    info = {"lhs": lhs, "lhs_se": lse, "rhs": rhs, "rhs_se": rse, "z": z, "digest": repr(values)}
    return checks, info


def _run_measure_space(inputs: dict):
    checks, results = [], []
    sizes_checked = set()
    for nu1, nu2 in inputs["pairs"]:
        n = len(nu1) + len(nu2)
        d = measures.prohorov_distance(nu1, nu2)
        m = measures.mf_measure_metric(nu1, nu2)
        mass_term = abs(1.0 / nu1.total_mass - 1.0 / nu2.total_mass)
        checks.append((f"measure-space:mf-metric-n{n}", _status(abs(m - d - mass_term) <= 1e-12)))
        results += [d, m]
        if n not in sizes_checked:
            sizes_checked.add(n)
            oracle = measures.prohorov_distance_bruteforce(nu1, nu2)
            checks.append((f"measure-space:prohorov-oracle-n{n}", _status(abs(d - oracle) < 1e-4)))
            results.append(oracle)

    poly = algebra.stone_weierstrass_p0(_sw_target, delta=0.25, eps=SW_EPS, degree_budget=256, arity=2,
                                        grid_points=SW_GRID)
    axis = np.linspace(0.0, 1.0, SW_GRID)
    excess = max(abs(_sw_target((x, y)) - poly.evaluate((x, y))) - SW_EPS * x for x in axis for y in axis)
    checks.append(("measure-space:stone-weierstrass-bound", _status(poly.in_p0() and excess <= 1e-12)))
    results += [poly.degree, excess]

    for name, space, pts, rng in inputs["axioms"]:
        report = metric_core.sample_metric_axioms(space, pts, AXIOM_TRIPLES, rng, tol=1e-9)
        checks.append((f"measure-space:axioms-{name}", _status(report.ok)))
        results += [report.identity, report.symmetry, report.triangle]

    triple = inputs["triple"]

    def psi(u):
        return levy.psi_exponent(triple, u)

    schedule = levy.default_m_schedule(1e3)
    C_hat = levy.recover_C(psi, 2, schedule)
    b_hat = levy.recover_b(psi, C_hat, 2, schedule, compensator_moment=triple.compensator_moment())
    checks.append(("measure-space:recover-C", _status(np.max(np.abs(C_hat - triple.C)) < 1e-2)))
    # recover_b's own consistency tolerance; over seeds 0-399 the error stays below 8e-3
    checks.append(("measure-space:recover-b", _status(np.max(np.abs(b_hat - triple.b)) < 5e-2)))

    law = inputs["law"]

    def laplace(f):
        return levy.laplace_functional(law, f)

    b_measure = levy.recover_b_measure(laplace, inputs["labels"], [200.0, 400.0, 800.0, 1600.0])
    got, truth = dict(b_measure.atoms), dict(law.b.atoms)
    worst = max(abs(got.get(e, 0.0) - truth.get(e, 0.0)) for e in inputs["labels"])
    checks.append(("measure-space:recover-b-measure", _status(worst < 1e-3)))
    results += [*C_hat.ravel(), *b_hat, worst]
    return checks, {"digest": repr([float(v) for v in results])}


def run(workload: str, inputs: dict):
    """Run one iteration; returns (checks, info)."""
    if workload in CLI_WORKLOADS:
        return _run_cli_inprocess(inputs)
    if workload == "excursion-functional":
        return _run_excursion_functional(inputs)
    return _run_measure_space(inputs)


def instrument(tracer) -> None:
    """Wrap measura's public functions, under the names their callers use."""

    def add_arg(counter: str, name: str, pos: int):
        def before(args, kwargs):
            tracer.counts[counter] += kwargs[name] if name in kwargs else args[pos]
            return args, kwargs

        return before

    def count_call(counter: str):
        def before(args, kwargs):
            tracer.counts[counter] += 1
            return args, kwargs

        return before

    def count_prohorov(args, kwargs):
        n = len(args[0].atoms) + len(args[1].atoms)
        tracer.counts["measures.prohorov_calls"] += 1
        tracer.counts[f"measures.prohorov_calls.n{n:02d}"] += 1
        return args, kwargs

    def count_first_arg(counter: str):
        def before(args, kwargs):
            return (tracer.counted(counter, args[0]), *args[1:]), kwargs

        return before

    def sw_degree(poly, args):
        tracer.counts["algebra.sw_degree"] = max(tracer.counts["algebra.sw_degree"], poly.degree)

    table = [
        (excursion, "empirical_lhs", add_arg("excursion.paths", "n_paths", 2), None),
        (excursion, "eval_functional", count_call("excursion.eval_calls"), None),
        (excursion, "target_rhs", add_arg("excursion.bessel_paths", "n_bessel", 1), None),
        (measures, "prohorov_distance", count_prohorov, None),
        (measures, "prohorov_distance_bruteforce", None, None),
        (measures, "weak_sharp_report", None, None),
        (metric_core, "sample_metric_axioms", None, None),
        (algebra, "stone_weierstrass_p0", None, sw_degree),
        (levy, "recover_C", count_first_arg("levy.psi_calls"), None),
        (levy, "recover_b", count_first_arg("levy.psi_calls"), None),
        (levy, "recover_b_measure", count_first_arg("levy.laplace_calls"), None),
    ]
    for module, attr, before, after in table:
        tracer.patch(module, attr, f"{module.__name__}.{attr}", before, after)
        if hasattr(cli, attr):
            tracer.patch(cli, attr, f"measura.cli.{attr}", before, after)
    tracer.patch(algebra.CubePolynomial, "evaluate", "measura.algebra.CubePolynomial.evaluate")
    tracer.patch(cli, "run", lambda args: f"measura.cli.run[{args[0].command}]")
    tracer.patch(cli, "emit", "measura.cli.emit")
