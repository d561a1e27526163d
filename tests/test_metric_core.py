import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measura.metric_core import (
    BoundedSetWitness,
    MetricStructure,
    hilbert_cube_metric,
    point_removal_metric,
    real_line,
    sample_metric_axioms,
    sup_norm_space,
)


class TestPointRemoval:
    def test_hand_value_on_the_line(self):
        # removed = 0, x = 1, y = 1/2: |1 - 1/2| + |1/1 - 1/(1/2)| = 0.5 + 1 = 1.5
        d = point_removal_metric(real_line(), 0.0, reference_point=1.0)
        assert d.dist(1.0, 0.5) == pytest.approx(1.5, abs=1e-15)

    def test_identity(self):
        d = point_removal_metric(real_line(), 0.0, reference_point=1.0)
        assert d.dist(0.7, 0.7) == 0.0

    def test_sup_norm_variant_matches_hand_value(self):
        # D=1, x=2, y=4: 2 + |1/2 - 1/4| = 2.25
        d = point_removal_metric(sup_norm_space(1), np.zeros(1), reference_point=np.ones(1))
        assert d.dist(np.array([2.0]), np.array([4.0])) == pytest.approx(2.25, abs=1e-15)

    def test_removed_point_queried_raises(self):
        d = point_removal_metric(real_line(), 0.0, reference_point=1.0)
        with pytest.raises(ValueError, match="removed point"):
            d.dist(0.0, 1.0)

    def test_reference_collision_needs_explicit_reference(self):
        # a reference at the removed point is refused when the space is built,
        # not at its first distance query
        with pytest.raises(ValueError, match="reference_point lies at the removed point"):
            point_removal_metric(real_line(), 0.0, reference_point=0.0)
        with pytest.raises(ValueError, match="reference_point lies at the removed point"):
            point_removal_metric(sup_norm_space(2), np.ones(2), reference_point=np.ones(2))

    def test_sequences_to_removed_point_escape_every_ball(self):
        d = point_removal_metric(real_line(), 0.0, reference_point=1.0)
        z = 2.0
        prev = 0.0
        for n in range(1, 12):
            cur = d.dist(z, 2.0**-n)
            assert cur > prev  # monotone lower bound in n
            prev = cur
        assert d.dist(z, 2.0**-40) > 1e10


class TestSupNorm:
    def test_dist_equals_the_numpy_form_bitwise(self):
        rng = np.random.default_rng(41)
        for dim in (1, 2, 3):
            dist = sup_norm_space(dim).dist
            for x, y in rng.standard_normal((500, 2, dim)) * 10.0 ** rng.integers(-6, 7, (500, 1, 1)):
                assert dist(x, y) == float(np.max(np.abs(x - y)))
                assert dist(tuple(x), list(y)) == float(np.max(np.abs(x - y)))
        dist = sup_norm_space(1).dist
        for x, y in rng.standard_normal((500, 2)):
            assert dist(x, y) == float(np.max(np.abs(np.asarray(x) - np.asarray(y))))
            assert dist(float(x), np.array([y])) == float(np.max(np.abs(x - np.array([y]))))

    def test_dist_is_a_python_float(self):
        assert type(sup_norm_space(2).dist(np.ones(2), (0, 3))) is float
        assert type(sup_norm_space(1).dist(1.5, -2)) is float


def test_a_space_needs_a_label():
    with pytest.raises(TypeError):
        MetricStructure(lambda x, y: abs(x - y), 0.0)


class TestHilbertCube:
    def test_identity(self):
        r = hilbert_cube_metric()
        assert r.dist((0.5, 0.2), (0.5, 0.2)) == 0.0

    def test_first_coordinate_term(self):
        r = hilbert_cube_metric()
        # |1 - 2| + 2^-1 * (0.5 ^ 1) = 1.25
        assert r.dist((1.0,), (0.5,)) == pytest.approx(1.25, abs=1e-15)

    def test_second_coordinate_weight(self):
        r = hilbert_cube_metric()
        # coordinates differ only in slot 2, weight 2^-2
        assert r.dist((0.5, 1.0), (0.5, 0.0)) == pytest.approx(0.25, abs=1e-15)

    def test_zero_first_coordinate_rejected(self):
        r = hilbert_cube_metric()
        with pytest.raises(ValueError, match="H_delta"):
            r.dist((0.0, 1.0), (0.5,))

    def test_bounded_sets_have_first_coordinate_floor(self):
        r = hilbert_cube_metric()
        rng = np.random.default_rng(5)
        cap = 7.0
        for _ in range(200):
            x = tuple(rng.uniform(0.01, 1.0, size=4))
            if r.dist(r.reference_point, x) <= cap:
                # |1 - 1/x1| <= cap forces x1 >= 1/(1+cap)
                assert x[0] >= 1.0 / (1.0 + cap) - 1e-12

    def test_product_topology_equivalence_on_slice(self):
        r = hilbert_cube_metric()
        x = (0.5, 0.25, 0.75)
        # coordinatewise convergence drives r to 0 ...
        dists = [r.dist(x, (0.5 + 1 / n, 0.25 - 1 / n, 0.75 + 1 / n)) for n in (10, 100, 1000)]
        assert dists[2] < dists[1] < dists[0] and dists[2] < 1e-2
        # ... and a coordinate staying apart keeps r away from 0
        assert r.dist(x, (0.5, 0.9, 0.75)) > 0.1


class TestWitness:
    def test_membership(self):
        w = BoundedSetWitness(radius=2.0, center=0.0)
        assert w.contains(real_line(), 1.5)
        assert not w.contains(real_line(), 2.5)


@settings(max_examples=150, deadline=None)
@given(
    x=st.floats(0.05, 3.0),
    y=st.floats(0.05, 3.0),
    z=st.floats(0.05, 3.0),
)
def test_point_removal_triangle_inequality(x, y, z):
    d = point_removal_metric(real_line(), 0.0, reference_point=1.0)
    assert d.dist(x, z) <= d.dist(x, y) + d.dist(y, z) + 1e-12


def test_axiom_sampler_flags_a_broken_distance():
    from measura.metric_core import MetricStructure

    broken = MetricStructure(lambda x, y: float(x) - float(y), 0.0, "signed")
    rng = np.random.default_rng(0)
    report = sample_metric_axioms(broken, [0.0, 1.0, 2.0], 200, rng, tol=1e-12)
    assert not report.ok and report.symmetry > 0.5


def test_axiom_sampler_passes_the_constructed_metrics():
    rng = np.random.default_rng(1)
    pts = list(np.concatenate([rng.uniform(0.05, 3, 60), -rng.uniform(0.05, 3, 60)]))
    d = point_removal_metric(real_line(), 0.0, reference_point=1.0)
    assert sample_metric_axioms(d, pts, 2000, rng, tol=1e-9).ok
    cube_pts = [tuple(rng.uniform(0.05, 1, 4)) for _ in range(100)]
    assert sample_metric_axioms(hilbert_cube_metric(), cube_pts, 2000, rng, tol=1e-9).ok
