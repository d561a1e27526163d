import math
import re

import numpy as np
import pytest

from measura import measures
from measura.algebra import FunctionFamily, TestFunction
from measura.measures import (
    AtomicMeasure,
    _strassen_defect,
    finite_measure_space,
    integrate,
    mf_measure_metric,
    prohorov_distance,
    prohorov_distance_bruteforce,
    weak_sharp_report,
)
from measura.levy import finite_ground_space, levy_ground_space
from measura.metric_core import (
    MetricStructure,
    _sorted_distinct,
    point_removal_metric,
    real_line,
    sample_metric_axioms,
    sup_norm_space,
)

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

    @pytest.mark.parametrize("w", [0.0, -1.0, math.inf, math.nan], ids=["zero", "negative", "inf", "nan"])
    def test_nonpositive_or_non_finite_weight_keeps_its_message(self, w):
        for build in (lambda: AtomicMeasure(((0.0, w),), SPACE), lambda: measure((0.0, w))):
            with pytest.raises(ValueError, match="atom weights must be positive and finite"):
                build()

    @pytest.mark.parametrize("w", ["1", "1.5", True, False, 1 + 0j, None],
                             ids=["str", "str-float", "true", "false", "complex", "none"])
    def test_a_weight_that_is_not_a_real_number_is_named_by_index(self, w):
        # AtomicMeasure(...) compared the str with 0.0 (TypeError); from_atoms took "1.5" and True through float()
        message = rf"atom 1 weight must be a real number, got {re.escape(repr(w))}"
        with pytest.raises(ValueError, match=message):
            AtomicMeasure(((0.0, 1.0), (1.0, w)), SPACE)
        with pytest.raises(ValueError, match=message):
            measure((0.0, 1.0), (1.0, w))
        with pytest.raises(ValueError, match=message.replace("atom 1", "atom 0")):
            AtomicMeasure.dirac(SPACE, 0.0, w)

    def test_numpy_and_rational_weights_pass(self):
        from fractions import Fraction

        mu = measure((0.0, np.float64(0.5)), (1.0, np.int64(2)), (2.0, Fraction(1, 4)), (3.0, np.float32(0.25)))
        assert mu.atoms == ((0.0, 0.5), (1.0, 2.0), (2.0, 0.25), (3.0, 0.25))
        assert all(type(w) is float for _, w in mu.atoms)


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
        empty, nu = AtomicMeasure.empty(SPACE), measure((1.0, 0.7), (-0.5, 0.2), (3.0, 0.4))
        assert prohorov_distance(empty, nu) == nu.total_mass
        assert prohorov_distance(nu, empty) == nu.total_mass

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("distance", [prohorov_distance, prohorov_distance_bruteforce, mf_measure_metric])
    def test_non_finite_distance_raises(self, distance, bad):
        # an atom at NaN or inf lies at a NaN or inf distance from delta_0
        nu, dirac = measure((bad, 1.0), (0.5, 0.3)), AtomicMeasure.dirac(SPACE, 0.0)
        for args in ((nu, dirac), (dirac, nu)):
            with pytest.raises(ValueError, match="non-finite distance"):
                distance(*args)

    @pytest.mark.parametrize(
        "space, point",
        [(real_line(), lambda rng: float(rng.uniform(-2, 2))), (sup_norm_space(2), lambda rng: rng.uniform(-2, 2, 2))],
        ids=["line", "sup2"],
    )
    def test_each_threshold_is_probed_once(self, space, point, monkeypatch):
        # near.sum() grows with the threshold, so it names the threshold of a probe
        probes = []

        def recorded(w1, w2, near):
            probes.append(int(near.sum()))
            return _strassen_defect(w1, w2, near)

        monkeypatch.setattr(measures, "_strassen_defect", recorded)
        rng = np.random.default_rng(29)
        for it in range(60):
            n1, n2 = (int(k) for k in rng.integers(0, 31, 2))
            nu1, nu2 = (AtomicMeasure.from_atoms(space, [(point(rng), float(rng.uniform(0.05, 2.0)))
                                                         for _ in range(n)]) for n in (n1, n2))
            if it % 10 == 0:
                nu2 = nu1
            cross = np.array([[space.dist(p, q) for q, _ in nu2.atoms] for p, _ in nu1.atoms])
            n_thresholds = len(np.unique(np.append(cross, 0.0)))
            probes.clear()
            prohorov_distance(nu1, nu2)
            assert len(set(probes)) == len(probes), it
            assert len(probes) <= math.ceil(math.log2(n_thresholds)) + 1, it

    def test_an_atom_of_another_dimension_raises(self):
        # numpy broadcast (1.0,) against (1.0, 5.0) and the distance read 1.0
        space = sup_norm_space(2)
        with pytest.raises(ValueError, match=r"2 coordinates, got one of shape \(1,\)"):
            prohorov_distance(AtomicMeasure.dirac(space, (1.0,)), AtomicMeasure.dirac(space, (1.0, 5.0)))

    @pytest.mark.parametrize("space", [sup_norm_space(2), levy_ground_space(2)], ids=["sup2", "levy2"])
    def test_the_batched_cross_block_gives_the_scalar_distance_bitwise(self, space):
        # a wrapped dist has no batched form, so the second measure pair runs the per-pair loop
        wrapped = MetricStructure(lambda x, y: space.dist(x, y), space.reference_point, space.label)
        rng = np.random.default_rng(30)
        for n1, n2 in ((1, 1), (3, 5), (60, 70), (200, 200)):
            atoms = [[(rng.uniform(-2, 2, 2), float(rng.uniform(0.05, 2.0))) for _ in range(n)] for n in (n1, n2)]
            batched = prohorov_distance(*(AtomicMeasure.from_atoms(space, a) for a in atoms))
            scalar = prohorov_distance(*(AtomicMeasure.from_atoms(wrapped, a) for a in atoms))
            assert batched.hex() == scalar.hex(), (n1, n2)

    def test_mismatched_spaces_raise(self):
        other = point_removal_metric(real_line(), 0.0, reference_point=1.0)
        with pytest.raises(ValueError, match="mismatched"):
            prohorov_distance(AtomicMeasure.dirac(SPACE, 1.0), AtomicMeasure.dirac(other, 1.0))

    def test_spaces_punctured_at_different_points_raise(self):
        at0 = point_removal_metric(real_line(), 0.0, reference_point=2.0)
        at1 = point_removal_metric(real_line(), 1.0, reference_point=2.0)
        with pytest.raises(ValueError, match="mismatched"):
            prohorov_distance(AtomicMeasure.dirac(at0, 0.5), AtomicMeasure.dirac(at1, 0.5))

    def test_spaces_with_different_reference_points_raise(self):
        # d# bounds from the reference point, so these are different spaces
        near, far = (point_removal_metric(real_line(), 0.0, reference_point=r) for r in (1.0, 50.0))
        with pytest.raises(ValueError, match="mismatched"):
            prohorov_distance(AtomicMeasure.dirac(near, 0.5), AtomicMeasure.dirac(far, 0.5))
        assert levy_ground_space(2).label == levy_ground_space(2).label
        assert prohorov_distance(AtomicMeasure.dirac(levy_ground_space(2), np.ones(2)),
                                 AtomicMeasure.dirac(levy_ground_space(2), np.ones(2))) == 0.0

    def test_reference_points_are_compared_by_exact_value(self):
        # the numeric type of a point does not matter, a difference below print precision does
        plain, typed = (point_removal_metric(real_line(), 0.0, reference_point=r) for r in (1.0, np.float64(1.0)))
        assert prohorov_distance(AtomicMeasure.dirac(plain, 0.5), AtomicMeasure.dirac(typed, 0.5)) == 0.0
        ones, nudged = (point_removal_metric(sup_norm_space(2), np.zeros(2), reference_point=r)
                        for r in (np.ones(2), np.ones(2) + 1e-9))
        with pytest.raises(ValueError, match="mismatched"):
            prohorov_distance(AtomicMeasure.dirac(ones, np.ones(2)), AtomicMeasure.dirac(nudged, np.ones(2)))

    @pytest.mark.parametrize("space", [sup_norm_space(2), levy_ground_space(2)], ids=["sup2", "levy2"])
    def test_an_atom_with_a_nan_coordinate_raises(self, space):
        nu, dirac = AtomicMeasure.from_atoms(space, [((1.0, math.nan), 1.0)]), AtomicMeasure.dirac(space, np.ones(2))
        for args in ((nu, dirac), (dirac, nu)):
            with pytest.raises(ValueError, match="non-finite distance"):
                prohorov_distance(*args)

    @pytest.mark.parametrize("a, b, want", [(0.3, 0.6, 0.6), (0.6, 0.3, 0.6), (2.0, 0.5, 1.5), (0.9, 0.95, 0.95),
                                            (1.2, 0.4, 1.0), (3.0, 3.5, 1.0)])
    def test_two_diracs_on_a_discrete_space_closed_form(self, a, b, want):
        # points one apart: p(a delta_x, b delta_y) = max(a, b) below 1, else max(1, |a - b|)
        ground = finite_ground_space(("x", "y"))
        nu1, nu2 = AtomicMeasure.dirac(ground, "x", a), AtomicMeasure.dirac(ground, "y", b)
        for distance in (prohorov_distance, prohorov_distance_bruteforce):
            assert distance(nu1, nu2) == pytest.approx(want, abs=1e-12)
            assert distance(nu2, nu1) == pytest.approx(want, abs=1e-12)

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
        assert worst < 1e-12

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(150):
            nu1, nu2 = random_measure(rng), random_measure(rng)
            worst = max(worst, abs(prohorov_distance(nu1, nu2) - prohorov_distance_bruteforce(nu1, nu2)))
        assert worst < 1e-12

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


    def test_thresholds_equal_np_unique_bitwise(self):
        # cross matrices of 0-8 x 0-8 distances: continuous, lattice (ties and
        # zeros of both signs) and |x - y| of lattice atoms; prohorov_distance's
        # thresholds are _sorted_distinct(cross.ravel(), [0.0])
        rng = np.random.default_rng(26)
        for it in range(600):
            n1, n2 = (int(k) for k in rng.integers(0, 9, 2))
            if it % 3 == 0:
                cross = np.abs(rng.standard_normal((n1, n2)))
            elif it % 3 == 1:
                cross = 0.1 * rng.integers(0, 6, (n1, n2))
                cross[cross == 0.0] = rng.choice([0.0, -0.0], int(np.count_nonzero(cross == 0.0)))
            else:
                cross = np.abs(np.subtract.outer(0.25 * rng.integers(0, 5, n1), 0.25 * rng.integers(0, 5, n2)))
            expected = np.unique(np.append(cross, 0.0))
            assert _sorted_distinct(cross.ravel(), [0.0]).tobytes() == expected.tobytes()

    def test_oracle_identity_is_exactly_zero(self):
        # subset masses summed in one atom order: a union never outweighs its
        # enlargement at eps = 0, so d(nu, nu) is exactly 0
        rng = np.random.default_rng(5)
        for _ in range(200):
            nu = random_measure(rng, max_atoms=7)
            assert prohorov_distance_bruteforce(nu, nu) == 0.0

    def test_oracle_equals_the_threshold_reference(self):
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
            if n <= 10:  # the Python subset enumeration of _threshold_reference is slow beyond
                assert got == pytest.approx(_threshold_reference(nu1, nu2), abs=1e-13), (it, n)
            assert got == pytest.approx(prohorov_distance(nu1, nu2), abs=1e-12), (it, n)
        for n in range(1, 7):  # equal measures, also with one atom split in two: exactly 0
            nu = measure(*[(float(rng.uniform(-2, 2)), float(rng.uniform(0.05, 2.0))) for _ in range(n)])
            (p, w), *rest = nu.atoms
            for other in (nu, measure((p, w / 2), (p, w / 2), *rest)):
                assert prohorov_distance_bruteforce(nu, other) == 0.0
                assert prohorov_distance_bruteforce(other, nu) == 0.0
        empty = AtomicMeasure.empty(SPACE)
        for other in (empty, measure((0.5, 1.2)), measure((0.0, 0.3), (1.0, 0.4))):
            assert prohorov_distance_bruteforce(empty, other) == pytest.approx(other.total_mass, abs=1e-15)
            assert prohorov_distance_bruteforce(other, empty) == pytest.approx(other.total_mass, abs=1e-15)

    @pytest.mark.parametrize("x", [0.25, 0.5, 1.5])
    def test_oracle_unit_diracs_closed_form(self, x):
        # d(delta_0, delta_x) = min(x, 1): the threshold x itself, or the whole unit mass
        assert prohorov_distance_bruteforce(AtomicMeasure.dirac(SPACE, 0.0), AtomicMeasure.dirac(SPACE, x)) == min(x, 1)

    @pytest.mark.parametrize("w", [0.3, 0.7, 2.5])
    def test_oracle_empty_versus_dirac_closed_form(self, w):
        # both algorithms, d(0, w delta) = w and d(0, 0) = 0 exactly
        empty, dirac = AtomicMeasure.empty(SPACE), AtomicMeasure.dirac(SPACE, 0.4, w)
        for distance in (prohorov_distance, prohorov_distance_bruteforce):
            assert distance(empty, dirac) == w
            assert distance(dirac, empty) == w
            assert distance(empty, empty) == 0.0

    @pytest.mark.parametrize("w", [0.01, 0.1])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_oracle_shifted_lattice_closed_form(self, n, w):
        # n + n atoms within the oracle cap; delta = 0.3 binds for w = 0.1 from n = 3 on
        delta = 0.3
        nu1 = measure(*[(float(k), w) for k in range(n)])
        nu2 = measure(*[(k + delta, w) for k in range(n)])
        assert prohorov_distance_bruteforce(nu1, nu2) == pytest.approx(min(delta, n * w), abs=1e-15)


def _hall_defect(w1, w2, near):
    # max(0, nu1(A) - nu2(N(A)), nu2(B) - nu1(N(B))) over all subsets A and B
    best = 0.0
    for w_from, w_to, adj in ((w1, w2, near), (w2, w1, near.T)):
        for mask in range(1, 2 ** len(w_from)):
            members = [i for i in range(len(w_from)) if mask >> i & 1]
            nbrs = np.flatnonzero(adj[members].any(axis=0))
            best = max(best, math.fsum([w_from[i] for i in members] + [-w_to[j] for j in nbrs]))
    return best


def _threshold_reference(nu1, nu2):
    # min over 0 and the cross distances t of max(t, every Hall deficiency at t)
    w1, w2 = [w for _, w in nu1.atoms], [w for _, w in nu2.atoms]
    cross = np.array([[nu1.space.dist(p, q) for q, _ in nu2.atoms] for p, _ in nu1.atoms]).reshape(len(w1), len(w2))
    return min(max(t, _hall_defect(w1, w2, cross <= t)) for t in sorted({0.0, *cross.ravel().tolist()}))


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

    def test_metric_axioms_on_measures_over_a_discrete_space(self):
        ground = finite_ground_space(("a", "b", "c"))
        space = finite_measure_space(AtomicMeasure.dirac(ground, "a"))
        rng = np.random.default_rng(34)
        pts = [AtomicMeasure.from_atoms(ground, [(e, float(w)) for e, w in zip("abc", rng.uniform(0.05, 2.0, 3))
                                                 if rng.random() < 0.7] or [("a", 1.0)]) for _ in range(12)]
        report = sample_metric_axioms(space, pts, 200, rng)
        assert report.ok, report


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
