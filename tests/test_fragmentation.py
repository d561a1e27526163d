import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measura.fragmentation import (
    FragmentationSequence,
    block_uniform_state,
    fragment_space,
    g_p,
    phi,
    phi_inverse,
    power_family,
    topology_equivalence_check_s1,
)
from measura.measures import AtomicMeasure, integrate, weak_sharp_report


def seq(*vals):
    return FragmentationSequence(tuple(vals))


class TestSequenceValidation:
    def test_trailing_zeros_trimmed(self):
        assert seq(0.5, 0.25, 0.0, 0.0).values == (0.5, 0.25)

    def test_increasing_rejected(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            seq(0.25, 0.5)

    def test_mass_cap(self):
        with pytest.raises(ValueError, match="mass"):
            seq(0.8, 0.3)

    def test_proper_requires_unit_mass(self):
        assert seq(0.5, 0.5).is_proper
        assert not seq(0.5, 0.25).is_proper

    @pytest.mark.parametrize("vals", [(float("nan"),), (float("nan"), 0.5), (0.5, float("nan"), 0.25),
                                      (0.5, float("nan"))])
    def test_nan_entry_rejected(self, vals):
        # NaN fails every comparison, so it must be caught entry by entry
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            seq(*vals)


class TestPhi:
    def test_single_unit_block(self):
        mu = phi(seq(1.0))
        assert mu.atoms == ((1.0, 1.0),)

    def test_multiplicity_encoded_in_weight(self):
        mu = phi(seq(0.5, 0.5))
        assert mu.atoms == ((0.5, 2.0),)

    def test_zero_state_maps_to_empty_measure(self):
        assert len(phi(FragmentationSequence(()))) == 0

    def test_inverse_of_dirac(self):
        mu = AtomicMeasure.dirac(fragment_space(), 1.0)
        assert phi_inverse(mu).values == (1.0,)

    def test_inverse_expands_multiplicity(self):
        mu = AtomicMeasure.from_atoms(fragment_space(), [(1 / 3, 3.0)])
        assert phi_inverse(mu).values == (1 / 3, 1 / 3, 1 / 3)

    def test_inverse_rejects_excess_mass(self):
        mu = AtomicMeasure.from_atoms(fragment_space(), [(0.6, 2.0)])
        with pytest.raises(ValueError, match="Phi"):
            phi_inverse(mu)

    def test_inverse_rejects_mass_above_tolerance(self):
        # 4e-10 above 1 is beyond MASS_TOL, so phi_inverse itself refuses it
        mu = AtomicMeasure.from_atoms(fragment_space(), [(0.5 + 4e-10, 1.0), (0.5, 1.0)])
        with pytest.raises(ValueError, match=r"not in Phi\(S_down\): total mass exceeds 1"):
            phi_inverse(mu)

    @pytest.mark.parametrize("x", [0.0, 1.5, -0.25])
    def test_inverse_rejects_atom_outside_unit_interval(self, x):
        mu = AtomicMeasure.dirac(fragment_space(), x)
        with pytest.raises(ValueError, match=r"not in Phi\(S_down\): atom .* outside \(0, 1\]"):
            phi_inverse(mu)

    def test_inverse_rejects_fractional_weight(self):
        mu = AtomicMeasure.from_atoms(fragment_space(), [(0.5, 1.5)])
        with pytest.raises(ValueError, match="non-integer"):
            phi_inverse(mu)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(1e-6, 1.0), min_size=0, max_size=20).map(
            lambda vs: tuple(sorted((v / (sum(vs) + 1e-9) for v in vs), reverse=True))
        )
    )
    def test_roundtrip_identity(self, vals):
        s = FragmentationSequence(vals)
        assert phi_inverse(phi(s)).values == s.values


class TestPowerAndExponentialSums:
    def test_half_half_square(self):
        assert g_p(seq(0.5, 0.5), 2) == pytest.approx(0.5, abs=1e-15)

    def test_unit_mass_first_power(self):
        assert g_p(seq(0.6, 0.4), 1) == pytest.approx(1.0, abs=1e-15)

    def test_block_witness_pinned_at_one(self):
        # one residual correction of the leading block suffices for every n
        for n in range(1, 2001):
            s = block_uniform_state(n)
            assert g_p(s, 1) == 1.0
            assert s.is_proper
            assert all(a >= b for a, b in zip(s.values, s.values[1:]))

    @pytest.mark.parametrize("n, message", [(0, "at least 1, got 0"), (-2, "at least 1, got -2"),
                                            (2.5, "an int, got 2.5")], ids=["zero", "negative", "float"])
    def test_block_count_must_be_a_positive_int(self, n, message):
        # these used to end in a ZeroDivisionError, an IndexError and a TypeError
        with pytest.raises(ValueError, match=f"n must be {message}"):
            block_uniform_state(n)

    def test_gp_matches_integral_against_embedding(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            k = int(rng.integers(1, 8))
            vals = tuple(sorted(rng.uniform(0.01, 1.0 / k, k), reverse=True))
            s = FragmentationSequence(vals)
            for p in (1, 2, 3):
                assert abs(g_p(s, p) - integrate(phi(s), lambda x: x**p).real) < 1e-15

    def test_gp_dominated_by_mass(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            k = int(rng.integers(1, 10))
            vals = tuple(sorted(rng.uniform(0.001, 1.0 / k, k), reverse=True))
            s = FragmentationSequence(vals)
            for p in (2, 3, 5):
                assert g_p(s, p) <= g_p(s, 1) + 1e-15 <= 1.0 + 1e-15

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            g_p(seq(0.5), 0)

    @pytest.mark.parametrize("p", [1.5, 2.0, math.nan, math.inf, -1])
    def test_power_must_be_a_positive_integer(self, p):
        with pytest.raises(ValueError, match=f"p must be {'at least 1' if p == -1 else 'an int'}, got {p}"):
            g_p(seq(0.5, 0.5), p)
        assert g_p(seq(0.5, 0.5), np.int64(2)) == 0.5


class TestConvergenceChecks:
    def test_symmetric_split_sequence(self):
        states = [seq(0.5 + 1.0 / n, 0.5 - 1.0 / n) for n in range(4, 200, 8)]
        limit = seq(0.5, 0.5)
        report, pointwise_converged = topology_equivalence_check_s1(states, limit, max_p=4, tol=1e-2)
        assert report.converged and pointwise_converged

    def test_block_witness_vacuous_for_full_family(self):
        # G_p(s(n)) = n^{1-p} -> 0 for p >= 2, but G_1 stays 1, so the family
        # hypothesis fails and the implication is vacuously true (the zero
        # limit has mass 0, so the gaps come from weak_sharp_report directly)
        states = [block_uniform_state(n) for n in (4, 16, 64, 256)]
        limit = FragmentationSequence(())
        report = weak_sharp_report([phi(s) for s in states], phi(limit), power_family(3), tol=1e-2)
        g1 = dict(report.member_gaps)["G_1"]
        g3 = dict(report.member_gaps)["G_3"]
        assert all(v == 1.0 for v in g1)
        assert g3[-1] == pytest.approx(256.0 ** (1 - 3), rel=1e-9)
        assert not report.converged

    def test_topology_equivalence_on_proper_states(self):
        states = [seq(1.0 - 1.0 / n, 1.0 / n) for n in (8, 32, 128, 512, 2048)]
        limit = seq(1.0)
        report, pointwise_converged = topology_equivalence_check_s1(states, limit, max_p=4, tol=1e-2)
        assert report.converged == pointwise_converged
        assert pointwise_converged
        g2 = dict(report.member_gaps)["G_2"]
        assert g2[-1] < 1e-2

    def test_topology_equivalence_on_diverging_proper_states(self):
        report, pointwise_converged = topology_equivalence_check_s1([seq(0.75, 0.25)] * 3, seq(0.5, 0.5), 4, 1e-2)
        assert report.converged == pointwise_converged
        assert not pointwise_converged

    def test_improper_states_rejected(self):
        with pytest.raises(ValueError, match="improper"):
            topology_equivalence_check_s1([seq(0.5)], seq(1.0), 2, 1e-3)


class TestSampledHomeomorphism:
    def test_forward_direction(self):
        # pointwise convergence with atoms bounded away from 0 drives the
        # integral gaps of the embedded measures to 0
        fam = power_family(4)
        states = [seq(0.5 + 0.1 * 4.0**-n, 0.25, 0.125) for n in range(1, 12)]
        limit = seq(0.5, 0.25, 0.125)
        report = weak_sharp_report([phi(s) for s in states], phi(limit), fam, tol=1e-6)
        assert report.converged

    def test_reverse_direction_on_diverging_states(self):
        fam = power_family(4)
        states = [seq(0.5), seq(0.5), seq(0.5)]
        limit = seq(0.25)
        report = weak_sharp_report([phi(s) for s in states], phi(limit), fam, tol=1e-6)
        assert not report.converged
        assert max(abs(s.coordinate(0) - limit.coordinate(0)) for s in states) > 0.1
