import math

import numpy as np
import pytest

from measura.algebra import FunctionFamily, TestFunction
from measura.measures import (
    AtomicMeasure,
    _strassen_defect,
    integrate,
    mf_measure_metric,
    prohorov_distance,
    prohorov_distance_bruteforce,
    weak_sharp_report,
)
from measura.metric_core import MetricStructure, point_removal_metric, real_line, sup_norm_space

SPACE = real_line()


def measure(*atoms):
    return AtomicMeasure.from_atoms(SPACE, atoms)


def random_measure(rng, max_atoms=4):
    k = int(rng.integers(1, max_atoms + 1))
    return measure(*[(float(rng.uniform(-2, 2)), float(rng.uniform(0.05, 2.0))) for _ in range(k)])


class TestIntegrate:
    def test_dirac_identity(self):
        mu = AtomicMeasure.dirac(SPACE, 0.7)
        assert integrate(mu, lambda x: x**3 + 1j * x) == pytest.approx(0.7**3 + 0.7j)

    def test_two_half_atoms(self):
        mu = measure((0.5, 1.0), (0.5, 1.0))
        assert integrate(mu, lambda x: x**2).real == pytest.approx(0.5, abs=1e-15)

    def test_fragmentation_mass_identity(self):
        # sum s_i through the embedding: s = (1/2, 1/3)
        from measura.fragmentation import FragmentationSequence, phi

        mu = phi(FragmentationSequence((0.5, 1 / 3)))
        assert integrate(mu, lambda x: x).real == pytest.approx(5 / 6, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            mu = random_measure(rng)
            a, b = rng.standard_normal(2)
            f = lambda x: math.sin(x) + 1j * x
            g = lambda x: x**2
            lhs = integrate(mu, lambda x: a * f(x) + b * g(x))
            rhs = a * integrate(mu, f) + b * integrate(mu, g)
            assert abs(lhs - rhs) < 1e-12

    def test_atom_order_does_not_matter(self):
        atoms = [(0.0, 0.1), (1.0, 0.2), (2.0, 0.3)]
        mu, reverse = measure(*atoms), measure(*atoms[::-1])
        for f in (lambda x: 1.0, lambda x: 1.0 + 1j * x):
            assert integrate(mu, f) == integrate(reverse, f)
        fam = FunctionFamily((TestFunction("one", lambda x: 1.0),), SPACE)
        report = weak_sharp_report([reverse], mu, fam, tol=1e-12)
        assert report.member_gaps[0][1] == (0.0,)

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            measure((0.0, -1.0))


class TestProhorov:
    def test_identical_measures(self):
        mu = measure((0.1, 1.0), (0.9, 0.3))
        assert prohorov_distance(mu, mu) == 0.0

    def test_identity_is_exactly_zero(self):
        # rounding residues of mass differences must not leak into d(mu, mu)
        atoms = [(0.0, 0.1), (1.0, 0.2), (2.0, 0.3)]
        mu, reverse = measure(*atoms), measure(*atoms[::-1])
        assert prohorov_distance(mu, mu) == 0.0
        assert prohorov_distance(mu, reverse) == 0.0
        assert prohorov_distance(reverse, mu) == 0.0
        assert mf_measure_metric(mu, reverse) == 0.0

    def test_shifted_diracs(self):
        assert prohorov_distance(
            AtomicMeasure.dirac(SPACE, 0.0), AtomicMeasure.dirac(SPACE, 0.3)
        ) == pytest.approx(0.3, abs=1e-12)

    def test_mass_gap_same_atom(self):
        d = prohorov_distance(
            AtomicMeasure.dirac(SPACE, 0.0, 1.0), AtomicMeasure.dirac(SPACE, 0.0, 1.4)
        )
        assert d == pytest.approx(0.4, abs=1e-12)

    def test_empty_versus_mass(self):
        assert prohorov_distance(AtomicMeasure.empty(SPACE), measure((1.0, 0.7))) == pytest.approx(0.7)

    def test_mismatched_spaces_raise(self):
        other = point_removal_metric(real_line(), 0.0, reference_point=1.0)
        with pytest.raises(ValueError, match="mismatched"):
            prohorov_distance(AtomicMeasure.dirac(SPACE, 1.0), AtomicMeasure.dirac(other, 1.0))

    def test_spaces_punctured_at_different_points_raise(self):
        at0 = point_removal_metric(real_line(), 0.0, reference_point=2.0)
        at1 = point_removal_metric(real_line(), 1.0, reference_point=2.0)
        with pytest.raises(ValueError, match="mismatched"):
            prohorov_distance(AtomicMeasure.dirac(at0, 0.5), AtomicMeasure.dirac(at1, 0.5))

    def test_only_cross_distances_are_computed(self):
        calls = []

        def dist(x, y):
            calls.append((x, y))
            return abs(x - y)

        space = MetricStructure(dist, 0.0, "counted R")
        nu1 = AtomicMeasure.from_atoms(space, [(0.1 * k, 0.2) for k in range(5)])
        nu2 = AtomicMeasure.from_atoms(space, [(0.1 * k + 0.05, 0.1) for k in range(7)])
        prohorov_distance(nu1, nu2)
        assert len(calls) == 5 * 7

    def test_more_than_fourteen_atoms_rejected(self):
        # the oracle enumerates 2^n unions of atoms; prohorov_distance has no cap
        nu1 = measure(*[(0.1 * k, 1.0) for k in range(8)])
        nu2 = measure(*[(0.1 * k + 0.05, 1.0) for k in range(7)])
        with pytest.raises(ValueError, match="15 atoms exceeds the exact-subset limit 14"):
            prohorov_distance_bruteforce(nu1, nu2)

    @pytest.mark.parametrize("n", [15, 200])
    def test_shifted_lattice_beyond_oracle_cap(self, n):
        delta = 0.3
        nu1 = measure(*[(float(k), 0.01) for k in range(n)])
        nu2 = measure(*[(k + delta, 0.01) for k in range(n)])
        assert prohorov_distance(nu1, nu2) == pytest.approx(min(delta, n * 0.01), abs=1e-12)

    @pytest.mark.parametrize(
        "space, point",
        [
            (real_line(), lambda rng: 0.1 * int(rng.integers(0, 6))),
            (sup_norm_space(2), lambda rng: tuple(0.1 * rng.integers(0, 4, 2))),
        ],
        ids=["line", "sup2"],
    )
    def test_lattice_ties_match_bruteforce_oracle(self, space, point):
        # a 0.1 lattice makes distances tie and atoms of the two measures coincide
        rng = np.random.default_rng(19)
        worst = 0.0
        for it in range(40):
            sizes = [0 if it % 5 == 0 else int(rng.integers(1, 8)), int(rng.integers(1, 8))]
            if it % 2:
                sizes.reverse()
            nu1, nu2 = (
                AtomicMeasure.from_atoms(space, [(point(rng), 0.1 * int(rng.integers(1, 6))) for _ in range(k)])
                for k in sizes
            )
            worst = max(worst, abs(prohorov_distance(nu1, nu2) - prohorov_distance_bruteforce(nu1, nu2)))
        assert worst < 2e-7

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(150):
            nu1, nu2 = random_measure(rng), random_measure(rng)
            worst = max(worst, abs(prohorov_distance(nu1, nu2) - prohorov_distance_bruteforce(nu1, nu2)))
        assert worst < 1e-4

    def test_each_probe_matches_subset_enumeration(self):
        # one max flow per threshold against every Hall deficiency of both sides; with
        # 0.1 k weights a true defect of about 3e-17 can read as 0, hence 1e-15
        rng = np.random.default_rng(23)
        for it in range(300):
            n1, n2 = (int(k) for k in rng.integers(1, 8, 2))
            if it % 3 == 2:  # lattice weights
                w1, w2 = ((0.1 * rng.integers(1, 11, n)).tolist() for n in (n1, n2))
            else:
                w1, w2 = (rng.uniform(0.05, 2.0, n).tolist() for n in (n1, n2))
            near = rng.random((n1, n2)) < rng.uniform(0.1, 0.9)
            if it % 5 == 4:  # equal measures: every atom is near itself
                n2, w2 = n1, list(w1)
                near = (rng.random((n1, n1)) < rng.uniform(0.0, 0.5)) | np.eye(n1, dtype=bool)
            assert _strassen_defect(w1, w2, near) == pytest.approx(_hall_defect(w1, w2, near), abs=1e-15), it

    def test_metric_axioms_on_sampled_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            a, b, c = (random_measure(rng) for _ in range(3))
            dab = prohorov_distance(a, b)
            dbc = prohorov_distance(b, c)
            dac = prohorov_distance(a, c)
            assert dab == pytest.approx(prohorov_distance(b, a), abs=1e-12)
            assert dac <= dab + dbc + 1e-10
            assert dab >= 0.0


    def test_oracle_identity_is_exactly_zero(self):
        # subset masses summed in one atom order: a union never outweighs its
        # enlargement at eps = 0, so d(nu, nu) is 0, not a bisection residue
        rng = np.random.default_rng(5)
        for _ in range(200):
            nu = random_measure(rng, max_atoms=7)
            assert prohorov_distance_bruteforce(nu, nu) == 0.0

    def test_oracle_equals_the_per_eps_matmul_form(self):
        # seeded instances of 0-14 atoms, on R and R^2-sup, with lattice ties
        # on a quarter of them; the larger sizes are rarer to bound the run time
        rng = np.random.default_rng(2020)
        sizes = list(range(11)) * 18 + [11, 12, 13, 14] * 3
        for it, n in enumerate(sizes):
            space = sup_norm_space(2) if it % 2 else real_line()
            lattice = it % 4 == 3

            def point():
                if lattice:
                    return 0.25 * rng.integers(0, 5, 2) if it % 2 else 0.25 * int(rng.integers(0, 5))
                return rng.uniform(-2, 2, 2) if it % 2 else float(rng.uniform(-2, 2))

            k = int(rng.integers(0, n + 1))
            nu1, nu2 = (AtomicMeasure.from_atoms(space, [(point(), float(rng.uniform(0.05, 2.0)))
                                                         for _ in range(m)]) for m in (k, n - k))
            got = prohorov_distance_bruteforce(nu1, nu2)
            assert got.hex() == float(_reference_bruteforce(nu1, nu2)).hex(), (it, n)
        for n in range(1, 7):  # equal measures, also with one atom split in two: exactly 0, which the
            # reference misses by up to its bisection width when its matmul sums the masses in another order
            nu = measure(*[(float(rng.uniform(-2, 2)), float(rng.uniform(0.05, 2.0))) for _ in range(n)])
            (p, w), *rest = nu.atoms
            for other in (nu, measure((p, w / 2), (p, w / 2), *rest)):
                assert prohorov_distance_bruteforce(nu, other) == 0.0
                assert prohorov_distance_bruteforce(other, nu) == 0.0
        empty = AtomicMeasure.empty(SPACE)
        for other in (empty, measure((0.5, 1.2)), measure((0.0, 0.3), (1.0, 0.4))):
            assert prohorov_distance_bruteforce(empty, other) == _reference_bruteforce(empty, other)
            assert prohorov_distance_bruteforce(other, empty) == _reference_bruteforce(other, empty)


def _hall_defect(w1, w2, near):
    # max(0, nu1(A) - nu2(N(A)), nu2(B) - nu1(N(B))) over all subsets A and B
    best = 0.0
    for w_from, w_to, adj in ((w1, w2, near), (w2, w1, near.T)):
        for mask in range(1, 2 ** len(w_from)):
            members = [i for i in range(len(w_from)) if mask >> i & 1]
            nbrs = np.flatnonzero(adj[members].any(axis=0))
            best = max(best, math.fsum([w_from[i] for i in members] + [-w_to[j] for j in nbrs]))
    return best


def _reference_bruteforce(nu1, nu2):
    # the oracle before subset sums: enlargements by int64 matmul on every eps
    pts = [p for p, _ in nu1.atoms] + [p for p, _ in nu2.atoms]
    n = len(pts)
    if n == 0:
        return 0.0
    w1 = np.zeros(n)
    w2 = np.zeros(n)
    w1[: len(nu1.atoms)] = [w for _, w in nu1.atoms]
    w2[len(nu1.atoms):] = [w for _, w in nu2.atoms]
    dmat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dmat[i, j] = dmat[j, i] = nu1.space.dist(pts[i], pts[j])
    masks = np.arange(2**n, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)

    def feasible(eps):
        near = dmat <= eps
        enlarged = bits @ near.astype(np.int64) > 0
        m1 = bits @ w1
        m2 = bits @ w2
        e1 = enlarged @ w1
        e2 = enlarged @ w2
        return bool(np.all(m1 <= e2 + eps) and np.all(m2 <= e1 + eps))

    if feasible(0.0):
        return 0.0
    lo, hi = 0.0, float(max(w1.sum(), w2.sum(), dmat.max()) + 1.0)
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestMfMetric:
    def test_identical(self):
        mu = measure((0.3, 1.2))
        assert mf_measure_metric(mu, mu) == 0.0

    def test_mass_two_versus_one(self):
        d = mf_measure_metric(
            AtomicMeasure.dirac(SPACE, 0.0, 1.0), AtomicMeasure.dirac(SPACE, 0.0, 2.0)
        )
        assert d == pytest.approx(1.5, abs=1e-12)  # prohorov 1 plus |1 - 1/2|

    def test_equal_masses_separated_atoms(self):
        d = mf_measure_metric(AtomicMeasure.dirac(SPACE, 0.0), AtomicMeasure.dirac(SPACE, 0.3))
        assert d == pytest.approx(0.3, abs=1e-12)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError, match="M_f"):
            mf_measure_metric(AtomicMeasure.empty(SPACE), AtomicMeasure.dirac(SPACE, 1.0))


class TestWeakSharpReport:
    def _family(self):
        from measura.levy import levy_family

        rng = np.random.default_rng(2)
        return levy_family(1, [(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1)) for _ in range(10)])

    def test_dirac_sequence_converges(self):
        fam = self._family()
        ns = [10, 100, 1000, 10_000]
        seq = [AtomicMeasure.dirac(fam.space, 1.0 + 1.0 / n) for n in ns]
        report = weak_sharp_report(seq, AtomicMeasure.dirac(fam.space, 1.0), fam, tol=1e-3)
        assert report.converged
        for _, gaps in report.member_gaps:
            assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))  # monotone decay
            assert all(g >= 0.0 for g in gaps)

    def test_constant_sequence_trivially_converges(self):
        fam = self._family()
        mu = AtomicMeasure.dirac(fam.space, 2.0)
        report = weak_sharp_report([mu, mu, mu], mu, fam, tol=1e-12)
        assert report.converged
        assert all(g == 0.0 for _, gaps in report.member_gaps for g in gaps)

    def test_escaping_mass_not_converged(self):
        space = SPACE
        fam = FunctionFamily(
            (TestFunction("one-on-(0,1]", lambda x: 1.0 if 0 < x <= 1 else 0.0),), space
        )
        ns = [2, 4, 8, 16]
        seq = [AtomicMeasure.dirac(space, 1.0 / n, float(n)) for n in ns]
        report = weak_sharp_report(seq, AtomicMeasure.empty(space), fam, tol=1e-3)
        assert not report.converged
        assert report.member_gaps[0][1][-1] >= 16.0  # gap = n * f(1/n)

    def test_mismatched_spaces_raise(self):
        # plane waves live on the punctured line; Diracs on R must not be integrated against them
        fam = self._family()
        on_line = AtomicMeasure.dirac(SPACE, 1.0)
        on_family_space = AtomicMeasure.dirac(fam.space, 1.0)
        for seq, limit in (([on_line], on_family_space), ([on_family_space, on_line], on_family_space),
                           ([on_family_space], on_line)):
            with pytest.raises(ValueError, match="mismatched") as err:
                weak_sharp_report(seq, limit, fam, tol=1e-3)
            assert repr(fam.space.label) in str(err.value) and repr(SPACE.label) in str(err.value)
