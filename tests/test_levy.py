import math
import re

import numpy as np
import pytest

from measura.algebra import NonConvergenceError
from measura.levy import (
    LevyTriple,
    RandomMeasureLaw,
    _schedule_limit,
    default_m_schedule,
    f_phi_family,
    f_u,
    finite_ground_space,
    laplace_functional,
    levy_family,
    levy_ground_space,
    psi_exponent,
    recover_C,
    recover_b,
    recover_b_measure,
)
from measura.measures import AtomicMeasure, prohorov_distance, weak_sharp_report

SPACE1 = levy_ground_space(1)


def triple(b, C, atoms, dim=1):
    space = levy_ground_space(dim)
    mu = AtomicMeasure.from_atoms(space, atoms) if atoms else AtomicMeasure.empty(space)
    return LevyTriple(np.atleast_1d(np.asarray(b, float)), np.atleast_2d(np.asarray(C, float)), mu)


def random_triple(rng, dim):
    b = rng.uniform(-2, 2, dim)
    A = rng.uniform(-1, 1, (dim, dim))
    C = A @ A.T
    n_atoms = int(rng.integers(1, 6))
    atoms = []
    for _ in range(n_atoms):
        x = rng.uniform(-1, 1, dim)
        x = x / np.max(np.abs(x)) * rng.uniform(0.1, 10.0)  # sup norm in [0.1, 10]
        atoms.append((x, float(rng.uniform(0.2, 1.0))))
    space = levy_ground_space(dim)
    return LevyTriple(b, C, AtomicMeasure.from_atoms(space, atoms))


class TestPsiExponent:
    def test_pure_gaussian(self):
        t = triple([0.0, 0.0], np.eye(2), [], dim=2)
        u = np.array([0.3, -1.2])
        assert psi_exponent(t, u) == pytest.approx(-0.5 * (u @ u), abs=1e-15)

    def test_single_uncompensated_atom(self):
        t = triple(0.0, 0.0, [(np.array([2.0]), 1.0)])
        u = 0.9
        assert psi_exponent(t, [u]) == pytest.approx(np.exp(2j * u) - 1.0, abs=1e-15)

    def test_zero_argument(self):
        rng = np.random.default_rng(0)
        t = random_triple(rng, 2)
        assert psi_exponent(t, np.zeros(2)) == 0.0

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            t = random_triple(rng, 2)
            u = rng.uniform(-3, 3, 2)
            assert abs(psi_exponent(t, -u) - psi_exponent(t, u).conjugate()) < 1e-12

    def test_dimension_mismatch(self):
        t = triple([0.0, 0.0], np.eye(2), [], dim=2)
        with pytest.raises(ValueError, match="dimension"):
            psi_exponent(t, np.zeros(3))

    def test_psd_validation(self):
        with pytest.raises(ValueError, match="semidefinite"):
            triple([0.0], [[-1.0]], [])


class TestRecovery:
    def test_exact_gaussian_any_schedule(self):
        C = np.array([[2.0, 1.0], [1.0, 3.0]])
        psi = lambda u: -0.5 * complex(u @ C @ u)
        C_hat = recover_C(psi, 2, [10.0, 20.0, 40.0])
        assert np.max(np.abs(C_hat - C)) < 1e-8

    def test_oscillatory_atom_still_converges(self):
        t = triple(0.0, 1.0, [(np.array([2.0]), 1.0)])
        C_hat = recover_C(lambda u: psi_exponent(t, u), 1, default_m_schedule(1e3))
        assert abs(C_hat[0, 0] - 1.0) < 1e-2

    def test_zero_exponent(self):
        C_hat = recover_C(lambda u: 0.0j, 2, [10.0, 100.0, 1000.0])
        assert np.all(C_hat == 0.0)
        b_hat = recover_b(lambda u: 0.0j, np.zeros((2, 2)), 2, [10.0, 100.0, 1000.0])
        assert np.all(b_hat == 0.0)

    def test_pure_drift(self):
        psi = lambda u: 1j * 3.0 * complex(u[0])
        b = recover_b(psi, np.zeros((1, 1)), 1, [10.0, 100.0, 1000.0])
        assert b[0] == pytest.approx(3.0, abs=1e-10)

    def test_drift_with_gaussian_cancellation(self):
        t = triple([1.0, -1.0], np.eye(2), [], dim=2)
        psi = lambda u: psi_exponent(t, u)
        b = recover_b(psi, np.eye(2), 2, default_m_schedule(1e3))
        assert np.max(np.abs(b - t.b)) < 1e-8

    def test_unit_ball_atoms_need_compensator_moment(self):
        t = triple(0.7, 0.0, [(np.array([0.4]), 1.0)])
        psi = lambda u: psi_exponent(t, u)
        sched = default_m_schedule(1e3, 16)
        raw = recover_b(psi, np.zeros((1, 1)), 1, sched)
        fixed = recover_b(psi, np.zeros((1, 1)), 1, sched, compensator_moment=t.compensator_moment())
        assert abs(raw[0] - (0.7 - 0.4)) < 1e-2  # drift relative to no compensation
        assert abs(fixed[0] - 0.7) < 1e-2

    def test_roundtrip_sample(self):
        rng = np.random.default_rng(42)
        sched = default_m_schedule(1e3, 16)
        for _ in range(10):
            dim = int(rng.integers(1, 4))
            t = random_triple(rng, dim)
            psi = lambda u: psi_exponent(t, u)
            C_hat = recover_C(psi, dim, sched)
            b_hat = recover_b(psi, C_hat, dim, sched, compensator_moment=t.compensator_moment())
            assert np.max(np.abs(C_hat - t.C)) < 1e-2
            assert np.max(np.abs(b_hat - t.b)) < 1e-2

    def test_divergent_exponent_raises(self):
        psi = lambda u: complex(-abs(u[0]) ** 3)
        with pytest.raises(RuntimeError, match="non-convergent"):
            recover_C(psi, 1, [10.0, 100.0, 1000.0])

    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            recover_C(lambda u: 0.0j, 1, [100.0])

    def test_two_entry_schedule_raises(self):
        # its tail half would be one raw estimate, returned as the limit unextrapolated
        with pytest.raises(ValueError, match="at least 3 entries"):
            recover_C(lambda u: 0.0j, 1, [10.0, 100.0])

    def test_three_entry_schedule_extrapolates(self):
        limit = _schedule_limit([10.0, 100.0, 1000.0], lambda m: 1.0 + 3.0 / m, 1.0, 5e-2, "1 + 3/m")
        assert limit == pytest.approx(1.0, abs=1e-12)


class TestPlaneWaveFamilies:
    def test_zero_pair_gives_zero_function(self):
        fam = levy_family(1, [(np.zeros(1), np.zeros(1))])
        assert fam.members[0](2.5) == 0.0

    def test_pi_phase_product(self):
        # u.x = pi and v.x = pi: (e^{i pi} - 1)^2 = 4
        fam = levy_family(1, [(np.array([math.pi]), np.array([math.pi]))])
        assert fam.members[0](1.0) == pytest.approx(4.0, abs=1e-12)

    def test_members_equal_the_inline_plane_wave_product_bitwise(self):
        rng = np.random.default_rng(19)
        for d in (1, 2, 3):
            pairs = [tuple(rng.uniform(-2, 2, (2, d))) for _ in range(20)]
            fam = levy_family(d, pairs)
            for x in rng.uniform(-5, 5, (50, d)):
                for (u, v), member in zip(pairs, fam.members):
                    inline = (np.exp(1j * float(u @ x)) - 1.0) * (np.exp(1j * float(v @ x)) - 1.0)
                    assert member(x) == complex(inline)

    def test_tr72_identity_bulk(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(2000):
            d = int(rng.integers(1, 4))
            u, v, x = rng.uniform(-2, 2, (3, d))
            fu, fv, fuv = f_u(u), f_u(v), f_u(u + v)
            worst = max(worst, abs(fu(x) * fv(x) - (fuv(x) - fu(x) - fv(x))))
        assert worst < 1e-12

    def test_tr72_g_version(self):
        # for the unit Dirac triple at x, psi(u) = G_u(x) = F_u(x) - i u.x 1_{|x|<=1}
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(500):
            u, v, x = rng.uniform(-2, 2, (3, 2))
            fu, fv = f_u(u), f_u(v)
            t = triple([0.0, 0.0], np.zeros((2, 2)), [(x, 1.0)], dim=2)
            gu, gv, guv = psi_exponent(t, u), psi_exponent(t, v), psi_exponent(t, u + v)
            worst = max(worst, abs(fu(x) * fv(x) - (guv - gu - gv)))
        assert worst < 1e-12

    def test_weak_sharp_convergence_of_levy_measures(self):
        rng = np.random.default_rng(5)
        fam = levy_family(1, [(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1)) for _ in range(20)])
        ns = [1, 10, 100, 1000, 10_000]
        seq = [AtomicMeasure.dirac(fam.space, 1.0 + 1.0 / n) for n in ns]
        report = weak_sharp_report(seq, AtomicMeasure.dirac(fam.space, 1.0), fam, tol=1e-3)
        assert report.converged

    def test_modulus_floor_positive_orthant_d2(self):
        # for D = 2 the u* floor needs sign-definite coordinates: on the
        # positive-orthant annulus the closed-form bound holds, while the full
        # annulus admits points with u.x = 0
        rng = np.random.default_rng(6)
        eps, D = 0.4, 2
        ustar = eps * math.pi / (2 * D)
        fu = f_u([ustar, ustar])
        floor = (1.0 - math.cos(math.pi * eps**2 / (2 * D))) ** 2
        sampled = []
        for _ in range(2000):
            x = rng.uniform(0.0, 1.0 / eps, 2)
            m = np.max(np.abs(x))
            if eps < m < 1.0 / eps:
                sampled.append(abs(fu(x)) ** 2)
        assert min(sampled) >= floor - 1e-12
        assert abs(fu(np.array([1.0, -1.0]))) == 0.0  # mixed signs break the floor


class TestLaplaceFunctionals:
    LABELS = ("a", "b", "c")

    def law(self):
        ground = finite_ground_space(self.LABELS)
        nu = AtomicMeasure.from_atoms(ground, [("a", math.log(2.0))])
        return RandomMeasureLaw(
            self.LABELS,
            AtomicMeasure.empty(ground),
            AtomicMeasure.from_atoms(finite_ground_space(self.LABELS), [(nu, 1.0)]),
        )

    def test_ground_sets_of_equal_size_are_different_spaces(self):
        abc = finite_ground_space(("a", "b", "c"))
        xyz = finite_ground_space(("x", "y", "z"))
        assert abc.label != xyz.label
        with pytest.raises(ValueError, match="mismatched base spaces"):
            prohorov_distance(AtomicMeasure.dirac(abc, "a"), AtomicMeasure.dirac(xyz, "x"))

    def test_zero_test_function(self):
        assert laplace_functional(self.law(), lambda e: 0.0) == 0.0

    def test_linear_part(self):
        ground = finite_ground_space(self.LABELS)
        law = RandomMeasureLaw(
            self.LABELS,
            AtomicMeasure.dirac(ground, "b", 1.0),
            AtomicMeasure.empty(finite_ground_space(self.LABELS)),
        )
        c = 0.37
        assert laplace_functional(law, lambda e: c) == pytest.approx(c, abs=1e-15)

    def test_log_two_atom(self):
        # <phi, nu> = ln 2 with unit jump weight: 1 - e^{-ln 2} = 1/2
        assert laplace_functional(self.law(), lambda e: 1.0 if e == "a" else 0.0) == pytest.approx(0.5)

    def test_negative_phi_rejected(self):
        with pytest.raises(ValueError, match="negative phi"):
            laplace_functional(self.law(), lambda e: -1.0)

    def test_f_phi_value(self):
        fam = f_phi_family(self.LABELS, [lambda e: 1.0 if e == "a" else 0.0])
        ground = finite_ground_space(self.LABELS)
        nu = AtomicMeasure.from_atoms(ground, [("a", math.log(2.0))])
        assert fam.members[0](nu) == pytest.approx(0.5, abs=1e-12)

    def test_f_phi_zero_function(self):
        fam = f_phi_family(self.LABELS, [lambda e: 0.0])
        ground = finite_ground_space(self.LABELS)
        nu = AtomicMeasure.dirac(ground, "c", 2.0)
        assert fam.members[0](nu) == 0.0

    def test_f_phi_product_identity(self):
        # F_phi F_psi = F_phi + F_psi - F_{phi+psi} (note the sign: both sides
        # expand to 1 - a - b + ab with a = e^{-<phi,nu>}, b = e^{-<psi,nu>})
        rng = np.random.default_rng(6)
        ground = finite_ground_space(self.LABELS)
        worst = 0.0
        for _ in range(300):
            pv, qv = rng.uniform(0.0, 3.0, (2, 3))
            phi = lambda e, _v=pv: float(_v[self.LABELS.index(e)])
            psi = lambda e, _v=qv: float(_v[self.LABELS.index(e)])
            both = lambda e: phi(e) + psi(e)
            nu = AtomicMeasure.from_atoms(
                ground, [(e, w) for e, w in zip(self.LABELS, rng.uniform(0.05, 2.0, 3))]
            )
            fam = f_phi_family(self.LABELS, [phi, psi, both])
            fp, fq, fpq = (m(nu) for m in fam.members)
            worst = max(worst, abs(fp * fq - (fp + fq - fpq)))
        assert worst < 1e-12

    def test_recover_b_measure_roundtrip(self):
        ground = finite_ground_space(self.LABELS)
        nu1 = AtomicMeasure.from_atoms(ground, [("a", 0.6), ("c", 1.4)])
        law = RandomMeasureLaw(
            self.LABELS,
            AtomicMeasure.from_atoms(ground, [("a", 2.0), ("b", 0.25)]),
            AtomicMeasure.from_atoms(finite_ground_space(self.LABELS), [(nu1, 0.8)]),
        )
        b_hat = recover_b_measure(
            lambda f: laplace_functional(law, f), self.LABELS, [100.0, 200.0, 400.0, 800.0]
        )
        got = dict(b_hat.atoms)
        assert got["a"] == pytest.approx(2.0, abs=1e-3)
        assert got["b"] == pytest.approx(0.25, abs=1e-3)
        assert "c" not in got

    def test_recover_b_measure_jump_only_is_empty(self):
        law = self.law()
        b_hat = recover_b_measure(
            lambda f: laplace_functional(law, f), self.LABELS, [100.0, 200.0, 400.0]
        )
        assert len(b_hat) == 0

    def test_recover_b_measure_slow_jump_raises(self):
        # a jump atom with mass 1e-3 on b: (1 - exp(-m 1e-3)) / m is far from
        # its 1/m tail on m <= 800, so full and tail fits disagree
        ground = finite_ground_space(self.LABELS)
        law = RandomMeasureLaw(
            self.LABELS,
            AtomicMeasure.empty(ground),
            AtomicMeasure.from_atoms(
                finite_ground_space(self.LABELS), [(AtomicMeasure.dirac(ground, "b", 1e-3), 5.0)]
            ),
        )
        with pytest.raises(NonConvergenceError, match=re.escape("<b, 1_'b'>")):
            recover_b_measure(lambda f: laplace_functional(law, f), self.LABELS, [100.0, 200.0, 400.0, 800.0])

    def test_recover_b_measure_random_measure_law_is_exact(self):
        # the law of the random-measure command: the two-point tail fit is
        # closed-form Richardson, which returns the drift weights exactly
        ground = finite_ground_space(self.LABELS)
        nu1 = AtomicMeasure.from_atoms(ground, [("a", 0.7), ("b", 0.4)])
        nu2 = AtomicMeasure.from_atoms(ground, [("c", 1.1)])
        law = RandomMeasureLaw(
            self.LABELS,
            AtomicMeasure.from_atoms(ground, [("a", 0.5), ("c", 2.0)]),
            AtomicMeasure.from_atoms(finite_ground_space(self.LABELS), [(nu1, 0.6), (nu2, 0.9)]),
        )
        b_hat = recover_b_measure(
            lambda f: laplace_functional(law, f), self.LABELS, [200.0, 400.0, 800.0, 1600.0]
        )
        assert dict(b_hat.atoms) == {"a": 0.5, "c": 2.0}

    def test_recover_b_measure_zero_functional(self):
        b_hat = recover_b_measure(lambda f: 0.0, self.LABELS, [10.0, 20.0, 40.0])
        assert len(b_hat) == 0
