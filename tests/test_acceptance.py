"""Acceptance suite.

Each test runs one numbered criterion at its stated tolerance and prints a
single PASS/FAIL line (run pytest with -s to see them live).  Runtime budgets
are asserted together with correctness.  A criterion that checks the claim of a
measura command calls that command's claim function in measura.cli with its
own inputs, so both go through one code path.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from measura.algebra import (
    FunctionFamily,
    TestFunction,
    check_bounded_below_on,
    check_separates_points,
    check_vanishes_nowhere,
)
from measura.cli import (
    ExperimentConfig,
    excursion_claim,
    fragmentation_claim,
    functional_claim,
    levy_converge_claim,
    prohorov_oracle_claim,
    random_measure_claim,
    run,
)
from measura.excursion import (
    ExcursionFunctional,
    ExcursionPath,
    _window_weights,
    excursion_metric,
    levy_hitting_density,
    smoothed_bump,
    smoothed_cutoff,
    target_oracle,
)
from measura.fragmentation import (
    FragmentationSequence,
    g_p,
    phi,
    phi_inverse,
    power_family,
    topology_equivalence_check_s1,
)
from measura.levy import (
    LevyTriple,
    RandomMeasureLaw,
    default_m_schedule,
    f_phi_family,
    f_u,
    finite_ground_space,
    levy_family,
    levy_ground_space,
    psi_exponent,
    recover_C,
    recover_b,
)
from measura.measures import AtomicMeasure, integrate, weak_sharp_report
from measura.metric_core import (
    BoundedSetWitness,
    hilbert_cube_metric,
    point_removal_metric,
    real_line,
    sample_metric_axioms,
)


def check(num, description, ok, elapsed, budget, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"{tag}  criterion {num:02d}  {description}  [{elapsed:.2f}s / {budget:g}s]"
    if detail:
        line += f"  {detail}"
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s > {budget}s"


def test_criterion_01_product_identity():
    # |F_u F_v - (F_{u+v} - F_u - F_v)| < 1e-12 over 1e4 random (u, v, x), D <= 3
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for dim in (1, 2, 3):
        n = 3400 if dim < 3 else 3200
        u, v, x = rng.uniform(-3, 3, (3, n, dim))
        fu = np.exp(1j * np.sum(u * x, axis=1)) - 1.0
        fv = np.exp(1j * np.sum(v * x, axis=1)) - 1.0
        fuv = np.exp(1j * np.sum((u + v) * x, axis=1)) - 1.0
        worst = max(worst, float(np.max(np.abs(fu * fv - (fuv - fu - fv)))))
    check(1, "plane-wave product identity", worst < 1e-12, time.perf_counter() - start, 1.0,
          f"worst={worst:.2e}")


def test_criterion_02_levy_triple_roundtrip():
    # 100 random triples, D <= 3, <= 5 atoms with sup norm in [0.1, 10]:
    # recover_C and recover_b within 1e-2 at m_max = 1e3
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    sched = default_m_schedule(1e3, 16)
    worst_C = worst_b = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        b = rng.uniform(-2, 2, dim)
        A = rng.uniform(-1, 1, (dim, dim))
        C = A @ A.T
        space = levy_ground_space(dim)
        atoms = []
        for _ in range(int(rng.integers(1, 6))):
            x = rng.uniform(-1, 1, dim)
            x = x / np.max(np.abs(x)) * rng.uniform(0.1, 10.0)
            atoms.append((x, float(rng.uniform(0.2, 1.0))))
        t = LevyTriple(b, C, AtomicMeasure.from_atoms(space, atoms))
        psi = lambda u: psi_exponent(t, u)
        C_hat = recover_C(psi, dim, sched)
        b_hat = recover_b(psi, C_hat, dim, sched, compensator_moment=t.compensator_moment())
        worst_C = max(worst_C, float(np.max(np.abs(C_hat - C))))
        worst_b = max(worst_b, float(np.max(np.abs(b_hat - b))))
    ok = worst_C < 1e-2 and worst_b < 1e-2
    check(2, "Levy triple round-trip", ok, time.perf_counter() - start, 10.0,
          f"worst_C={worst_C:.2e} worst_b={worst_b:.2e}")


def test_criterion_03_levy_measure_convergence():
    # mu_n = delta_{1+1/n} -> delta_1: gaps over 20 sampled F_u F_v members
    # drop below 1e-3 by n = 1e4 (the levy-converge claim, pair seed 303)
    start = time.perf_counter()
    rows, verdicts = levy_converge_claim(pair_seed=303)
    check(3, "Levy measure weak# convergence", all(verdicts.values()), time.perf_counter() - start, 5.0,
          f"final_gap={rows[-1]['max_gap']:.2e}")


def test_criterion_04_step4_lower_bound():
    # 100 random annuli eps < |x| < 1/eps on the punctured line: sampled min of
    # |F_{u*}|^2 with u* = eps*pi/2 meets the closed-form floor
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    space = levy_ground_space(1)
    ok = True
    margin = math.inf
    for _ in range(100):
        eps = float(rng.uniform(0.05, 0.9))
        ustar = eps * math.pi / 2.0
        floor = (1.0 - math.cos(math.pi * eps**2 / 2.0)) ** 2
        fu = f_u([ustar])
        fam = FunctionFamily((TestFunction("|F_u*|^2", lambda x: abs(fu(x)) ** 2),), space)
        # the ball around the reference 1 through -1/eps holds the whole annulus
        annulus = BoundedSetWitness(space.dist(space.reference_point, -1.0 / eps), space.reference_point)
        pts = np.concatenate([
            rng.uniform(eps, 1.0 / eps, 400),
            -rng.uniform(eps, 1.0 / eps, 400),
        ])
        found, _, sampled_min = check_bounded_below_on(fam, annulus, pts)
        ok = ok and found and sampled_min >= floor - 1e-12
        margin = min(margin, sampled_min - floor)
    check(4, "plane-wave modulus floor on annuli", ok, time.perf_counter() - start, 5.0,
          f"min_margin={margin:.2e}")


def test_criterion_05_stone_weierstrass():
    # g(x) = x1 * ramp((x1 - 0.25)/0.25): returned p lies in P_0 and obeys
    # |g - p| <= 0.05 x1 on a 50-point grid including the x1 = 0 face (the
    # sw-approx command, at degree budget 1000)
    start = time.perf_counter()
    res = run(ExperimentConfig("sw-approx"))
    row = res.rows[0]
    check(5, "weighted Stone-Weierstrass bound", res.passed, time.perf_counter() - start, 5.0,
          f"degree={row['degree']} excess={row['max_excess_over_bound']:.2e}")


def test_criterion_06_prohorov_oracle():
    # max flow matches the exact subset-enumeration oracle within 1e-12 on
    # 500 random pairs of <= 4-atom measures, weights U(0.05, 2)
    start = time.perf_counter()
    rows, verdicts = prohorov_oracle_claim(seed=606, n_instances=500, weight_floor=0.05)
    worst = max(r["abs_diff"] for r in rows)
    check(6, "Prokhorov distance vs brute force", all(verdicts.values()), time.perf_counter() - start, 10.0,
          f"worst={worst:.2e}")


def test_criterion_07_laplace_functional():
    # product identity to 1e-12 (sign as mathematically forced) and drift
    # measure recovery on |E| <= 5 within 1e-3
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    labels = ("a", "b", "c", "d", "e")
    ground = finite_ground_space(labels)
    samples = [(*rng.uniform(0.0, 3.0, (2, len(labels))), rng.uniform(0.05, 2.0, len(labels)))
               for _ in range(2000)]
    nu1 = AtomicMeasure.from_atoms(ground, [("a", 0.6), ("c", 1.4)])
    nu2 = AtomicMeasure.from_atoms(ground, [("b", 0.2), ("e", 0.9)])
    law = RandomMeasureLaw(
        labels,
        AtomicMeasure.from_atoms(ground, [("a", 2.0), ("b", 0.25), ("d", 1.1)]),
        AtomicMeasure.from_atoms(finite_ground_space(labels), [(nu1, 0.8), (nu2, 0.5)]),
    )
    rows, verdicts = random_measure_claim(law, samples, [100.0, 200.0, 400.0, 800.0, 1600.0])
    worst_b = max(r["abs_err"] for r in rows[:-1])
    check(7, "Laplace functional identities", all(verdicts.values()), time.perf_counter() - start, 2.0,
          f"ident={rows[-1]['abs_err']:.2e} b_err={worst_b:.2e}")


def test_criterion_08_excursion_tail():
    # (1/eps) P_eps(zeta > t) vs sqrt(2/(pi t)) at t in {0.5, 1, 2} within
    # 3 standard errors; eps = 0.01, 1e5 paths per t
    start = time.perf_counter()
    rows, verdicts = excursion_claim(0.01, 100_000, seeds=(8000, 8001, 8002))
    details = [f"t={r['t']:g}: z={(r['lhs'] - r['target']) / r['se']:+.2f}" for r in rows]
    check(8, "excursion lifetime tail", all(verdicts.values()), time.perf_counter() - start, 300.0,
          " ".join(details))


def test_criterion_09_excursion_functional_match():
    # one (f, g) window pair plus lifetime weight h at eps = 0.01: Monte Carlo
    # over killed paths agrees with the exact finite-eps target of the same
    # expectation within 3 standard errors
    start = time.perf_counter()
    [row], verdicts = functional_claim(0.01, 100_000, seed=909)
    check(9, "excursion functional vs exact finite-eps target", all(verdicts.values()), time.perf_counter() - start,
          600.0, f"lhs={row['lhs']:.5f}+-{row['lhs_se']:.5f} target={row['target']:.5f} z={row['z']:+.2f}")


def test_criterion_10_hitting_density_and_entrance_law():
    # quadrature of the hitting density over (0, inf) lands in [0.999, 1.001];
    # target_oracle integrates the entrance law m_t(y) = (2y/t) phi_t(y) at
    # eps = 0 and q_t(eps, y)/eps at eps > 0.  With h = 1 (the hitting table is
    # exactly 1) its closed-form moments hold to 1e-12 on a window from 0 and
    # on criterion 09's bump: g(y) = y, a martingale killed at 0, gives
    # (1/eps) E_eps[e_t; t < zeta] = 1, so the target is sum w at every eps > 0;
    # g(y) = y^2 gives n(e_t^2) = 2 sqrt(2t/pi) at eps = 0
    start = time.perf_counter()
    norms = []
    for alpha in (0.3, 1.0, 2.5):
        val, _ = quad(lambda r: float(levy_hitting_density(alpha, r)), 0.0, np.inf, limit=200)
        norms.append(val)
    norm_ok = all(0.999 <= v <= 1.001 for v in norms)
    dt, one = 0.02, lambda r: np.ones_like(np.asarray(r, float))
    errors = []
    for f, t_end in ((smoothed_cutoff(0.5, 0.2), 0.7), (smoothed_bump(0.5, 1.5, 0.1), 1.5)):
        linear, square = (ExcursionFunctional(h=one, h_constant_after=0.0, pairs=((f, t_end, g),))
                          for g in (lambda y: np.asarray(y, float), lambda y: np.asarray(y, float) ** 2))
        [(w, _)] = _window_weights(linear, dt)
        errors += [abs(target_oracle(linear, dt, eps) - math.fsum(w)) for eps in (0.01, 0.1, 0.5)]
        t = np.arange(w.size) * dt
        errors.append(abs(target_oracle(square, dt) - math.fsum(w * 2.0 * np.sqrt(2.0 * t / math.pi))))
    ok = norm_ok and max(errors) <= 1e-12
    check(10, "hitting density and entrance law", ok, time.perf_counter() - start, 60.0,
          f"norms={[f'{v:.6f}' for v in norms]} entrance_worst={max(errors):.1e}")


def test_criterion_11_fragmentation():
    start = time.perf_counter()
    rng = np.random.default_rng(1111)

    # round-trip identity on 1e4 random states, exact
    roundtrip_ok = True
    for _ in range(10_000):
        k = int(rng.integers(1, 21))
        raw = np.sort(rng.uniform(1e-6, 1.0, k))[::-1]
        vals = tuple(raw / max(raw.sum(), 1.0) * rng.uniform(0.2, 1.0))
        s = FragmentationSequence(vals)
        if phi_inverse(phi(s)).values != s.values:
            roundtrip_ok = False
            break

    # G_p equals the integral of x^p against the embedded measure, 1e-15
    gp_ok = True
    for _ in range(300):
        k = int(rng.integers(1, 10))
        vals = tuple(sorted(rng.uniform(0.01, 1.0 / k, k), reverse=True))
        s = FragmentationSequence(vals)
        for p in (1, 2, 4):
            if abs(g_p(s, p) - integrate(phi(s), lambda x: x**p).real) > 1e-15:
                gp_ok = False

    # the discontinuity witness is exactly 1 for n <= 1e3 (the fragmentation claim)
    witness_ok = fragmentation_claim(range(1, 1001))[1]["G1_exactly_one"]

    # sampled homeomorphism: pointwise convergence of states (atoms bounded
    # away from 0) iff integral gaps of the embedded measures vanish
    fam = power_family(4)
    states = [FragmentationSequence((0.5 + 0.1 * 4.0**-n, 0.25, 0.2)) for n in range(1, 14)]
    limit = FragmentationSequence((0.5, 0.25, 0.2))
    fwd = weak_sharp_report([phi(s) for s in states], phi(limit), fam, tol=1e-6)
    apart = [FragmentationSequence((0.5,))] * 3
    rev = weak_sharp_report([phi(s) for s in apart], phi(FragmentationSequence((0.25,))), fam, tol=1e-6)
    homeo_ok = fwd.converged and not rev.converged

    # mass-1 topology equivalence, both directions, tol 1e-6
    proper = [FragmentationSequence((1.0 - 4.0**-n, 4.0**-n)) for n in range(2, 14)]
    report, pointwise_converged = topology_equivalence_check_s1(
        proper, FragmentationSequence((1.0,)), max_p=4, tol=1e-6
    )
    topo_ok = report.converged == pointwise_converged

    ok = roundtrip_ok and gp_ok and witness_ok and homeo_ok and topo_ok
    check(11, "fragmentation identities and topology", ok, time.perf_counter() - start, 10.0,
          f"roundtrip={roundtrip_ok} gp={gp_ok} witness={witness_ok} homeo={homeo_ok} topo={topo_ok}")


def test_criterion_12_metric_axioms():
    # identity, symmetry, triangle at 1e-9 on 1e4 sampled triples for each of
    # the four constructed metrics
    start = time.perf_counter()
    rng = np.random.default_rng(1212)
    reports = {}

    d_line = point_removal_metric(real_line(), 0.0, reference_point=1.0)
    pts = list(np.concatenate([rng.uniform(0.05, 5, 200), -rng.uniform(0.05, 5, 200)]))
    reports["point-removal"] = sample_metric_axioms(d_line, pts, 10_000, rng, tol=1e-9)

    d_levy = levy_ground_space(2)
    pts2 = [x for x in rng.uniform(-3, 3, (300, 2)) if np.max(np.abs(x)) > 0.05]
    reports["punctured-sup"] = sample_metric_axioms(d_levy, pts2, 10_000, rng, tol=1e-9)

    cube = hilbert_cube_metric()
    cpts = [tuple(rng.uniform(0.05, 1.0, int(rng.integers(1, 6)))) for _ in range(300)]
    reports["hilbert-cube"] = sample_metric_axioms(cube, cpts, 10_000, rng, tol=1e-9)

    paths = []
    for _ in range(120):
        dt = float(rng.choice([0.01, 0.02, 0.025]))
        n = int(rng.integers(5, 50))
        vals = np.abs(np.cumsum(rng.standard_normal(n + 1))) * 0.3
        vals[-1] = 0.0
        paths.append(ExcursionPath(np.arange(n + 1) * dt, vals, zeta=float(n * dt)))
    from measura.metric_core import MetricStructure

    d_exc = MetricStructure(excursion_metric, paths[0], "excursion")
    reports["excursion"] = sample_metric_axioms(d_exc, paths, 10_000, rng, tol=1e-9)

    ok = all(r.ok for r in reports.values())
    detail = " ".join(
        f"{k}:tri={r.triangle:.1e}" for k, r in reports.items()
    )
    check(12, "metric axioms", ok, time.perf_counter() - start, 10.0, detail)


def test_criterion_13_abstract_hypotheses():
    # the abstract's conditions on the three example families, sampled at 1e-9:
    # each separates points and vanishes nowhere, and on the ball of radius R
    # around 1 in (0,1] (that is [1/(1+R), 1]) some x^p stays above 1/(1+R)
    start = time.perf_counter()
    rng = np.random.default_rng(1313)
    tol = 1e-9

    plane = levy_family(1, [(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1)) for _ in range(20)])
    line_pts = list(rng.choice([-1.0, 1.0], 200) * rng.uniform(0.05, 5.0, 200))

    labels = ("a", "b", "c")
    weights = [rng.uniform(0.1, 2.0, 3) for _ in range(4)]
    fphi = f_phi_family(labels, [lambda e, _w=w: float(_w[labels.index(e)]) for w in weights])
    ground = finite_ground_space(labels)
    measures_e = []
    for _ in range(60):
        chosen = rng.choice(len(labels), int(rng.integers(1, len(labels) + 1)), replace=False)
        measures_e.append(AtomicMeasure.from_atoms(ground, [(labels[i], float(rng.uniform(0.05, 2.0)))
                                                            for i in chosen]))

    powers = power_family(4)
    frag_pts = list(rng.uniform(1e-3, 1.0, 200))

    hypotheses = {}
    for name, fam, pts in (("plane", plane, line_pts), ("fphi", fphi, measures_e), ("power", powers, frag_pts)):
        pairs = list(zip(pts[::2], pts[1::2]))
        hypotheses[name] = (check_separates_points(fam, pairs, tol), check_vanishes_nowhere(fam, pts, tol))

    R = 3.0
    ball = BoundedSetWitness(R, powers.space.reference_point)
    inside = list(rng.uniform(1.0 / (1.0 + R), 1.0, 200))
    found, member, delta = check_bounded_below_on(powers, ball, inside)
    floor = 1.0 / (1.0 + R)

    ok = all(sep and vanish for sep, vanish in hypotheses.values()) and found and delta >= floor
    detail = " ".join(f"{k}:sep={a} vanish={b}" for k, (a, b) in hypotheses.items())
    check(13, "abstract hypotheses on the example families", ok, time.perf_counter() - start, 2.0,
          f"{detail} floor:{member}={delta:.4f}>={floor:g}")
