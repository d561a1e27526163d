import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measura.excursion import ExcursionPath, excursion_metric
from measura.levy import levy_ground_space
from measura.metric_core import (
    BoundedSetWitness,
    MetricAxiomReport,
    MetricStructure,
    distances,
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

    @pytest.mark.parametrize("space, x, y, shape", [
        (sup_norm_space(2), [1.0, 2.0], [1.0], r"\(1,\)"),  # broadcast to 1.0
        (sup_norm_space(2), 5.0, [1.0, 2.0], r"\(\)"),  # broadcast to 4.0
        (sup_norm_space(1), [[1.0]], [2.0], r"\(1, 1\)"),
        (levy_ground_space(2), [3.0], [1.0, 2.0], r"\(1,\)"),  # broadcast to 2.1667
    ], ids=["short-vector", "scalar-in-R2", "matrix-in-R1", "levy-space"])
    def test_a_point_of_another_shape_raises_in_both_forms(self, space, x, y, shape):
        with pytest.raises(ValueError, match=f"coordinates, got one of shape {shape}"):
            space.dist(x, y)
        with pytest.raises(ValueError, match=f"coordinates, got one of shape {shape}"):
            distances(space, [x, y, y], np.array([0, 1]), np.array([1, 2]))

    def test_a_bad_point_no_pair_queries_is_not_checked(self):
        pts = [np.ones(2), [1.0], np.zeros(2)]
        got = distances(sup_norm_space(2), pts, np.array([0, 2]), np.array([2, 0]))
        assert got.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_a_nan_coordinate_gives_nan_in_both_forms(self, dim):
        # Python's max skipped a NaN after the first coordinate: dist([0, 0], [1, nan]) read 1.0
        space = sup_norm_space(dim)
        for k in range(dim):
            bad = np.ones(dim)
            bad[k] = math.nan
            pts = [np.zeros(dim), bad]
            assert math.isnan(space.dist(*pts)) and math.isnan(space.dist(*pts[::-1]))
            assert np.isnan(distances(space, pts, np.array([0, 1, 0]), np.array([1, 0, 0]))).tolist() == [True] * 2 + [False]

    def test_scalars_are_points_of_r1_only(self):
        assert sup_norm_space(1).dist(1.5, [-2.0]) == 3.5
        assert distances(sup_norm_space(1), [1.5, np.array([-2.0])], np.array([0]), np.array([1])).tolist() == [3.5]
        with pytest.raises(ValueError, match="at least 1"):
            sup_norm_space(0)

    def test_a_dimension_that_is_not_an_int_is_named(self):
        # 2.5 used to end in a TypeError from numpy
        with pytest.raises(ValueError, match="dim must be an int, got 2.5"):
            sup_norm_space(2.5)


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

    def test_contains_all_equals_the_per_point_loop(self):
        # the ball runs through one sample point, its radius less 0, half the
        # slack (the point still inside) or twice it (the point just outside)
        from measura.algebra import FunctionFamily, TestFunction, check_bounded_below_on

        rng = np.random.default_rng(77)
        cases = [
            (real_line(), 0.3, lambda: float(rng.uniform(-3.0, 3.0))),
            (levy_ground_space(1), np.ones(1), lambda: float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 4.0))),
            (sup_norm_space(2), np.zeros(2), lambda: rng.uniform(-2.0, 2.0, 2)),
            (hilbert_cube_metric(), (1.0,), lambda: tuple(rng.uniform(0.2, 1.0, 3))),
        ]
        outcomes = set()
        for space, center, draw in cases:
            fam = FunctionFamily((TestFunction("one", lambda x: 1.0),), space)
            for i, shrink in enumerate((0.0, 0.5e-12, 2e-12) * 5):
                pts = [draw() for _ in range(int(rng.integers(1, 40)))]
                far = max(pts, key=lambda x: space.dist(center, x))
                edge = far if i % 2 else pts[int(rng.integers(len(pts)))]  # every other ball holds all points
                w = BoundedSetWitness(space.dist(center, edge) - shrink, center)
                inside = all(w.contains(space, x) for x in pts)
                assert w.contains_all(space, pts) == inside
                outcomes.add((shrink, inside))
                if inside:
                    assert check_bounded_below_on(fam, w, pts)[0]
                else:
                    with pytest.raises(ValueError, match="outside the bounded-set witness"):
                        check_bounded_below_on(fam, w, pts)
        assert (0.5e-12, True) in outcomes and (2e-12, False) in outcomes


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


def _reference_axioms(space, points, n_triples, rng, tol=1e-12):
    # the five-calls-per-triple loop sample_metric_axioms replaced, kept as its oracle
    pts = list(points)
    idx = rng.integers(0, len(pts), size=(n_triples, 3))
    worst_id = worst_sym = worst_tri = 0.0
    for i, j, k in idx:
        x, y, z = pts[i], pts[j], pts[k]
        dxy = space.dist(x, y)
        worst_id = max(worst_id, abs(space.dist(x, x)))
        worst_sym = max(worst_sym, abs(dxy - space.dist(y, x)))
        worst_tri = max(worst_tri, space.dist(x, z) - dxy - space.dist(y, z))
    return MetricAxiomReport(worst_id, worst_sym, max(worst_tri, 0.0), tol)


def _criterion_12_spaces(rng):
    # the four constructed metrics on criterion-12-style sample points
    removal = point_removal_metric(real_line(), 0.0, reference_point=1.0)
    yield removal, list(np.concatenate([rng.uniform(0.05, 5, 200), -rng.uniform(0.05, 5, 200)]))
    yield levy_ground_space(2), [x for x in rng.uniform(-3, 3, (300, 2)) if np.max(np.abs(x)) > 0.05]
    yield hilbert_cube_metric(), [tuple(rng.uniform(0.05, 1.0, int(rng.integers(1, 6)))) for _ in range(300)]
    paths = []
    for _ in range(120):
        dt = float(rng.choice([0.01, 0.02, 0.025]))
        n = int(rng.integers(5, 50))
        vals = np.abs(np.cumsum(rng.standard_normal(n + 1))) * 0.3
        vals[-1] = 0.0
        paths.append(ExcursionPath(np.arange(n + 1) * dt, vals, zeta=float(n * dt)))
    yield MetricStructure(excursion_metric, paths[0], "excursion"), paths


def _builtin_spaces(rng):
    # every metric with a batched form, on points with repeats and, in R^1, mixed scalar and vector points
    spaces = list(_criterion_12_spaces(rng))
    spaces.append((real_line(), list(rng.uniform(-3, 3, 40)) + [1, np.float64(0.5), np.array(2.0)]))
    for dim in (1, 2, 3):
        pts = list(rng.standard_normal((40, dim)) * 10.0 ** rng.integers(-6, 7, (40, 1)))
        pts[1] = pts[0].copy()
        if dim == 1:
            pts[2:6] = [float(pts[2][0]), tuple(pts[3]), list(pts[4]), np.float64(pts[5][0])]
        spaces.append((sup_norm_space(dim), pts))
    spaces.append((point_removal_metric(sup_norm_space(3), np.ones(3), reference_point=np.zeros(3)),
                   [tuple(x) for x in rng.uniform(-2, 2, (40, 3))] + [np.full(3, 1.5)]))
    return spaces


class TestDistances:
    def test_each_builtin_batched_form_equals_its_dist_bitwise(self):
        rng = np.random.default_rng(1214)
        for space, pts in _builtin_spaces(rng):
            assert hasattr(space.dist, "many"), space.label
            n = len(pts)
            i, j = rng.integers(0, n, (2, 3 * n))
            i = np.concatenate([i, j, np.arange(n), i[:5]])  # swapped, diagonal and repeated pairs
            j = np.concatenate([j, i[: 3 * n], np.arange(n), j[:5]])
            got = distances(space, pts, i, j)
            want = [space.dist(pts[a], pts[b]) for a, b in zip(i.tolist(), j.tolist())]
            assert got.dtype == np.float64 and got.shape == i.shape
            assert [float(v).hex() for v in got] == [w.hex() for w in want], space.label

    def test_no_pairs_give_an_empty_array(self):
        for space, pts in _builtin_spaces(np.random.default_rng(1215)):
            assert distances(space, pts, np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)).shape == (0,)

    def test_a_batched_form_gets_only_the_queried_points_renumbered(self):
        seen = []

        def dist(x, y):
            return abs(x - y)

        def many(points, i, j):
            seen.append((list(points), i.tolist(), j.tolist()))
            return np.abs(np.array(points)[i] - np.array(points)[j])

        dist.many = many
        space = MetricStructure(dist, 0.0, "R")
        got = distances(space, [0.0, "not a point", 3.0, 5.0, None], np.array([3, 0, 3]), np.array([0, 0, 2]))
        assert got.tolist() == [5.0, 0.0, 2.0] and seen == [([0.0, 3.0, 5.0], [2, 0, 2], [0, 0, 1])]
        assert distances(space, [None], np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)).shape == (0,)
        assert len(seen) == 1

    def test_a_point_no_pair_queries_is_not_converted(self):
        pts = [1.0, "not a number", 4.0]
        assert distances(real_line(), pts, np.array([0]), np.array([2])).tolist() == [3.0]
        assert distances(hilbert_cube_metric(), [(0.5,), (), (1.0,)], np.array([0]), np.array([2])).tolist() == [1.25]
        with pytest.raises(ValueError, match="H_delta"):  # an all-empty set of queried points
            distances(hilbert_cube_metric(), [(0.5,), ()], np.array([1]), np.array([1]))

    def test_a_wrapped_dist_is_called_once_per_pair_in_order(self):
        calls = []

        def dist(x, y):
            calls.append((x, y))
            return real_line().dist(x, y)

        got = distances(MetricStructure(dist, 0.0, "R"), [0.0, 1.0, 3.0], np.array([2, 0, 1]), np.array([0, 0, 2]))
        assert got.tolist() == [3.0, 0.0, 2.0] and calls == [(3.0, 0.0), (0.0, 0.0), (1.0, 3.0)]

    def test_a_queried_removed_point_raises(self):
        for space, removed, other in ((point_removal_metric(real_line(), 0.0, reference_point=1.0), 0.0, 2.0),
                                      (levy_ground_space(2), np.zeros(2), np.ones(2))):
            with pytest.raises(ValueError, match="removed point queried"):
                distances(space, [other, removed], np.array([0, 1]), np.array([0, 0]))
            assert distances(space, [other, removed], np.array([0]), np.array([0])).tolist() == [0.0]

    @pytest.mark.parametrize("bad", [(0.0, 0.5), (-0.2,), ()], ids=["zero", "negative", "empty"])
    def test_a_first_coordinate_at_most_zero_raises(self, bad):
        pts = [(0.5, 0.1), bad, (1.0,)]
        with pytest.raises(ValueError, match="H_delta"):
            hilbert_cube_metric().dist(pts[2], bad)
        with pytest.raises(ValueError, match="H_delta"):
            distances(hilbert_cube_metric(), pts, np.array([0, 2]), np.array([2, 1]))
        assert distances(hilbert_cube_metric(), pts, np.array([0]), np.array([2])).tolist() == [1.0 + 0.25 + 0.025]


def _hex(report):
    return [float(v).hex() for v in (report.identity, report.symmetry, report.triangle, report.tol)]


class TestAxiomSampler:
    def test_report_equals_the_per_triple_loop_bitwise(self):
        rng = np.random.default_rng(1212)
        for space, pts in _criterion_12_spaces(rng):
            for n_triples in (0, 1, 700):
                state = rng.bit_generator.state
                got = sample_metric_axioms(space, pts, n_triples, rng, tol=1e-9)
                after = rng.bit_generator.state
                rng.bit_generator.state = state
                want = _reference_axioms(space, pts, n_triples, rng, tol=1e-9)
                assert _hex(got) == _hex(want), space.label
                assert rng.bit_generator.state == after  # the same draws, so a shared rng stays in step

    @pytest.mark.parametrize("dist", [lambda x, y: x - y, lambda x, y: (x - y) ** 2], ids=["signed", "squared"])
    def test_broken_metric_reports_equal_the_per_triple_loop(self, dist):
        broken = MetricStructure(dist, 0.0, "broken")
        pts = list(np.random.default_rng(3).uniform(-1, 1, 7))
        got = sample_metric_axioms(broken, pts, 300, np.random.default_rng(4))
        want = _reference_axioms(broken, pts, 300, np.random.default_rng(4))
        assert _hex(got) == _hex(want) and not got.ok

    def test_negative_zero_triangle_term_reads_plus_zero(self):
        class OneTriple:
            def integers(self, low, high, size):
                return np.array([[0, 1, 2]])

        # d(x, z) - d(x, y) - d(y, z) = -0.0 - 0.0 - 0.0 = -0.0; the per-triple loop reports +0.0
        space = MetricStructure(lambda x, y: -0.0 if (x, y) == (0.0, 2.0) else 0.0, 0.0, "zeros")
        got = sample_metric_axioms(space, [0.0, 1.0, 2.0], 1, OneTriple())
        assert _hex(got) == _hex(_reference_axioms(space, [0.0, 1.0, 2.0], 1, OneTriple(), tol=1e-12))
        assert got.triangle.hex() == "0x0.0p+0"

    def test_each_distinct_ordered_pair_is_evaluated_once(self):
        rng = np.random.default_rng(1213)
        for space, pts in _criterion_12_spaces(rng):
            index = {id(p): a for a, p in enumerate(pts)}
            calls = []

            def dist(x, y, _dist=space.dist):
                calls.append((index[id(x)], index[id(y)]))
                return _dist(x, y)

            counted = MetricStructure(dist, space.reference_point, space.label)
            state = rng.bit_generator.state
            sample_metric_axioms(counted, pts, 2000, rng)
            rng.bit_generator.state = state
            i, j, k = rng.integers(0, len(pts), size=(2000, 3)).T
            pairs = set()
            for a, b, c in zip(i.tolist(), j.tolist(), k.tolist()):
                pairs |= {(a, b), (a, a), (b, a), (a, c), (b, c)}
            assert len(calls) == len(set(calls)) == len(pairs) < 5 * 2000
            assert set(calls) == pairs

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_distance_fails(self, bad):
        # max(0.0, nan) is 0.0, so the per-triple loop passed a NaN metric
        space = MetricStructure(lambda x, y: bad if x != y else 0.0, 0.0, "nan")
        if math.isnan(bad):
            assert _reference_axioms(space, [0.0, 1.0, 2.0], 100, np.random.default_rng(0)).ok
        with pytest.raises(ValueError, match=r"non-finite distance .* between points \d+ and \d+"):
            sample_metric_axioms(space, [0.0, 1.0, 2.0], 100, np.random.default_rng(0))

    @pytest.mark.parametrize("n_triples, message", [(2.5, "an int, got 2.5"), (-1, "at least 0, got -1")],
                             ids=["float", "negative"])
    def test_a_bad_triple_count_is_named(self, n_triples, message):
        # 2.5 used to end in a TypeError, -1 in numpy's "negative dimensions are not allowed"
        with pytest.raises(ValueError, match=f"n_triples must be {message}"):
            sample_metric_axioms(real_line(), [0.0, 1.0], n_triples, np.random.default_rng(0))

    @pytest.mark.parametrize("points", [[], [0.0]])
    def test_fewer_than_two_points_rejected(self, points):
        with pytest.raises(ValueError, match="need at least two sample points"):
            sample_metric_axioms(real_line(), points, 10, np.random.default_rng(0))

    def test_a_nan_field_fails_the_report(self):
        for fields in ((math.nan, 0.0, 0.0), (0.0, math.nan, 0.0), (0.0, 0.0, math.nan)):
            assert not MetricAxiomReport(*fields, tol=1e-9).ok
