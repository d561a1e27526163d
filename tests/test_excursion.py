import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from measura.cli import EXCURSION_TIMES, excursion_claim, functional_claim
from measura.excursion import (
    _CHUNK_CELLS,
    ExcursionFunctional,
    ExcursionPath,
    empirical_lhs,
    eval_functional,
    excursion_metric,
    kappa,
    levy_hitting_density,
    sample_killed_bm,
    smoothed_bump,
    smoothed_cutoff,
    step_indicator,
    target_oracle,
    target_rhs,
    _window_weights,
)
from measura.metric_core import MetricStructure, _sorted_distinct, distances


def const_path(level, end, dt=0.01):
    n = int(round(end / dt))
    grid = np.arange(n + 1) * dt
    return ExcursionPath(grid, np.full(n + 1, float(level)), zeta=float(grid[-1]))


class TestExcursionPath:
    def test_zero_lifetime_rejected(self):
        with pytest.raises(ValueError, match="lifetime"):
            ExcursionPath(np.array([0.0]), np.array([0.0]), zeta=0.0)

    @pytest.mark.parametrize("zeta", ["1", True, 1j], ids=["str", "bool", "complex"])
    def test_a_lifetime_that_is_not_a_real_number_is_named(self, zeta):
        # a str ended in a TypeError from the comparison with 0.0, and True was accepted
        with pytest.raises(ValueError, match=rf"zeta must be a real number, got {re.escape(repr(zeta))}"):
            ExcursionPath([0.0, 1.0], [0.5, 0.0], zeta=zeta)

    def test_a_censored_path_keeps_an_infinite_lifetime(self):
        assert ExcursionPath([0.0, 1.0], [0.5, 0.3], zeta=math.inf).censored
        assert not ExcursionPath([0.0, 1.0], [0.5, 0.0], zeta=np.float64(1.0)).censored

    def test_values_after_lifetime_must_vanish(self):
        grid = np.array([0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="lifetime"):
            ExcursionPath(grid, np.array([1.0, 1.0, 1.0]), zeta=0.5)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ExcursionPath(np.array([0.0, 0.1]), np.array([1.0, -0.2]), zeta=0.1)

    def test_nan_values_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ExcursionPath(np.array([0.0, 0.1, 0.2]), np.array([0.3, math.nan, 0.0]), zeta=0.2)

    @pytest.mark.parametrize("values", [[math.inf, 0.0], [0.5, math.inf]])
    def test_infinite_values_rejected(self, values):
        # an infinite value would make d(e, e) nan
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ExcursionPath([0.0, 0.1], values, zeta=0.1 if values[1] == 0.0 else math.inf)

    def test_nan_grid_rejected(self):
        with pytest.raises(ValueError, match="grid must be finite and strictly increasing"):
            ExcursionPath([0.0, math.nan, 0.2], [1.0, 1.0, 0.0], zeta=0.2)

    def test_decreasing_grid_rejected(self):
        with pytest.raises(ValueError, match="grid must be finite and strictly increasing"):
            ExcursionPath([0.0, 0.5, 0.2], [1.0, 1.0, 0.0], zeta=0.5)

    @pytest.mark.parametrize("grid, values", [([0.0, 0.1, 0.2], [1.0, 0.0]), ([[0.0, 0.1]], [[1.0, 0.0]])],
                             ids=["lengths", "2-d"])
    def test_grid_and_values_of_other_shapes_rejected(self, grid, values):
        with pytest.raises(ValueError, match="grid and values must be matching 1-d arrays"):
            ExcursionPath(grid, values, zeta=0.1)

    def test_grid_not_starting_at_zero_rejected(self):
        with pytest.raises(ValueError, match="grid must start at 0"):
            ExcursionPath([0.1, 0.2], [1.0, 0.0], zeta=0.2)

    @pytest.mark.parametrize("grid", [[0.0, 0.1, 0.1], [0.0, 0.1, math.inf]])
    def test_repeated_or_infinite_grid_time_rejected(self, grid):
        with pytest.raises(ValueError, match="grid must be finite and strictly increasing"):
            ExcursionPath(grid, [1.0, 1.0, 1.0], zeta=math.inf)


class TestExcursionMetric:
    def test_identity(self):
        e = const_path(1.0, 1.0)
        assert excursion_metric(e, e) == 0.0

    def test_piecewise_constant_hand_value(self):
        # |e1 - e2| is 1 on [1, 2]: integral clips at 1; lifetime |1 - 1/2|
        e1 = const_path(1.0, 1.0)
        e2 = const_path(1.0, 2.0)
        assert excursion_metric(e1, e2) == pytest.approx(1.5, abs=1e-12)

    def test_lifetime_only_difference(self):
        # identical traces (zero after 0.6), different declared absorption times
        grid = np.arange(0, 101) * 0.01
        vals = np.concatenate([np.full(61, 0.7), np.zeros(40)])
        vals[60] = 0.0
        e1 = ExcursionPath(grid, vals, zeta=0.6)
        e2 = ExcursionPath(grid, vals.copy(), zeta=1.0)
        assert excursion_metric(e1, e2) == pytest.approx(abs(1 / 0.6 - 1 / 1.0), abs=1e-12)

    def test_mixed_grids_are_exact(self):
        # linear ramp represented on two different grids is the same function
        g1 = np.linspace(0.0, 1.0, 11)
        g2 = np.linspace(0.0, 1.0, 101)
        e1 = ExcursionPath(g1, 1.0 - g1, zeta=1.0)
        e2 = ExcursionPath(g2, 1.0 - g2, zeta=1.0)
        assert excursion_metric(e1, e2) == pytest.approx(0.0, abs=1e-12)

    def test_triangle_on_random_paths(self):
        rng = np.random.default_rng(8)

        def rand_path():
            dt = float(rng.choice([0.01, 0.02, 0.025]))
            n = int(rng.integers(5, 60))
            vals = np.abs(np.cumsum(rng.standard_normal(n + 1))) * 0.3
            vals[-1] = 0.0
            grid = np.arange(n + 1) * dt
            return ExcursionPath(grid, vals, zeta=float(grid[-1]))

        for _ in range(300):
            a, b, c = rand_path(), rand_path(), rand_path()
            assert excursion_metric(a, c) <= (
                excursion_metric(a, b) + excursion_metric(b, c) + 1e-9
            )
            assert excursion_metric(a, b) == pytest.approx(excursion_metric(b, a), abs=1e-12)

    def test_lebesgue_convergence_with_matching_lifetimes(self):
        base = const_path(1.0, 1.0)
        dists = []
        for n in (2, 4, 8, 16, 32):
            bumped = ExcursionPath(base.grid, base.values + 1.0 / n, zeta=base.zeta)
            dists.append(excursion_metric(base, bumped))
        assert all(b < a for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 0.05

    def test_lifetime_gap_is_a_floor(self):
        e1 = const_path(1.0, 1.0)
        zeta2 = 2.0
        floor = abs(1.0 / 1.0 - 1.0 / zeta2)
        for n in (10, 100):
            # paths shrinking in measure toward e1 but keeping lifetime 2
            grid = np.arange(0, 201) * 0.01
            vals = np.where(grid <= 1.0, 1.0, 1.0 / n)
            vals[-1] = 1.0 / n
            e2 = ExcursionPath(grid, vals, zeta=zeta2)
            assert excursion_metric(e1, e2) >= floor - 1e-9


    def test_equals_the_two_interp_form_bitwise(self):
        for a, b, copy in _random_pairs():
            for e1, e2 in ((a, b), (b, a), (a, a), (a, copy)):
                assert excursion_metric(e1, e2).hex() == _reference_excursion_metric(e1, e2).hex()


def _random_pairs():
    # 600 pairs of random paths, and a copy of the first of each pair
    rng = np.random.default_rng(20)

    def rand_path():
        dt = float(rng.choice([0.007, 0.01, 0.013, 0.02, 0.025]))
        n = int(rng.integers(1, 60))
        grid = np.arange(n + 1) * dt
        vals = np.abs(np.cumsum(rng.standard_normal(n + 1))) * float(rng.choice([0.05, 0.3, 2.0]))
        kind = int(rng.integers(3))
        if kind == 0:  # censored: still positive at the grid end
            return ExcursionPath(grid, vals + 0.1, zeta=math.inf)
        absorbed = int(rng.integers(1, n + 1)) if kind == 1 else n  # kind 1: zeros after the lifetime
        vals[absorbed:] = 0.0
        return ExcursionPath(grid, vals, zeta=float(grid[absorbed]))

    for _ in range(600):
        a, b = rand_path(), rand_path()
        yield a, b, ExcursionPath(a.grid.copy(), a.values.copy(), zeta=a.zeta)


def _distances_of(pairs):
    # excursion_metric.many over the given pairs of paths, in one call
    paths = list({id(e): e for pair in pairs for e in pair}.values())
    index = {id(e): k for k, e in enumerate(paths)}
    i, j = (np.array([index[id(pair[s])] for pair in pairs]) for s in (0, 1))
    return distances(MetricStructure(excursion_metric, paths[0], "excursion"), paths, i, j)


class TestBatchedMetric:
    def test_one_call_equals_the_reference_bitwise(self):
        pairs = [p for a, b in EDGE_PAIRS.values() for p in ((a, b), (b, a), (a, a), (b, b))]
        pairs += [p for a, b, copy in _random_pairs() for p in ((a, b), (b, a), (a, a), (a, copy))]
        tau = _sorted_distinct(*(e.grid for pair in pairs for e in pair))  # the union grid
        assert len(pairs) > 10 * (_CHUNK_CELLS // tau.size) > 10  # many chunks of many pairs
        got = _distances_of(pairs)
        for (e1, e2), d in zip(pairs, got.tolist()):
            assert d.hex() == _reference_excursion_metric(e1, e2).hex()

    def test_irregular_single_point_signed_zero_and_long_paths_equal_the_scalar_metric_bitwise(self):
        rng = np.random.default_rng(21)
        paths = [ExcursionPath([0.0], [0.7], zeta=math.inf), ExcursionPath([0.0], [0.0], zeta=1.0),
                 ExcursionPath([0.0, 0.1, 0.3], [-0.0, 0.4, -0.0], zeta=0.3),
                 ExcursionPath([0.0, 0.1, 0.2], [1.0, -0.0, 0.0], zeta=0.1)]
        for _ in range(60):
            grid = np.concatenate(([0.0], np.sort(rng.choice(np.arange(1, 40) * 0.0125, int(rng.integers(1, 30)),
                                                             replace=False))))
            vals = np.abs(rng.standard_normal(grid.size)) * float(rng.choice([0.1, 1.0, 3.0]))
            paths.append(ExcursionPath(grid, vals, zeta=math.inf))
        for n, dt in ((150, 0.007), (300, 0.004), (5000, 0.0003)):  # sums past 128 terms, a union grid past half a chunk
            vals = np.abs(np.cumsum(rng.standard_normal(n + 1))) * 0.2
            vals[-1] = 0.0
            paths.append(ExcursionPath(np.arange(n + 1) * dt, vals, zeta=n * dt))
        assert _CHUNK_CELLS // _sorted_distinct(*(e.grid for e in paths)).size == 1  # one pair per chunk
        pairs = [(e1, e2) for e1 in paths for e2 in paths]
        got = _distances_of(pairs)
        for (e1, e2), d in zip(pairs, got.tolist()):
            assert d.hex() == excursion_metric(e1, e2).hex() == _reference_excursion_metric(e1, e2).hex()

    def test_pairs_in_descending_merged_grid_size_come_back_in_input_order(self):
        # the batch takes pairs in order of merged-grid size; given them largest first, every
        # pair is moved, and several chunks hold several sizes each
        rng = np.random.default_rng(37)
        paths = []
        for n in range(1, 90):
            vals = np.abs(np.cumsum(rng.standard_normal(n + 1))) * 0.4
            vals[-1] = 0.0
            dt = float(rng.choice([0.01, 0.02]))
            paths.append(ExcursionPath(np.arange(n + 1) * dt, vals, zeta=n * dt if n % 3 else math.inf))
        pairs = [(paths[k], paths[int(rng.integers(k + 1))]) for k in range(len(paths))]
        pairs *= 3
        sizes = [_sorted_distinct(e1.grid, e2.grid).size for e1, e2 in pairs]
        order = sorted(range(len(pairs)), key=lambda k: -sizes[k])
        pairs = [pairs[k] for k in order]
        assert [sizes[k] for k in order] == sorted(sizes, reverse=True) and sizes[order[0]] > sizes[order[-1]]
        assert len(pairs) > 3 * (_CHUNK_CELLS // _sorted_distinct(*(e.grid for e in paths)).size)
        got = _distances_of(pairs)
        assert [d.hex() for d in got.tolist()] == [excursion_metric(e1, e2).hex() for e1, e2 in pairs]
        assert [d.hex() for d in got.tolist()] == [_reference_excursion_metric(e1, e2).hex() for e1, e2 in pairs]

    def test_an_overflowing_slope_reads_the_value_at_its_grid_point(self):
        # slope 1e10 / 1e-300 is inf, and inf * 0 is NaN where np.interp returns the value itself
        steep = ExcursionPath([0.0, 1e-300, 1.0], [0.0, 1e10, 0.0], zeta=1.0)
        paths = [steep, ExcursionPath([0.0, 1e-300, 0.5, 1.0], [0.2, 0.3, 0.1, 0.0], zeta=1.0),
                 ExcursionPath([0.0, 0.25], [0.4, 0.0], zeta=0.25)]
        pairs = [(steep, e) for e in paths] + [(e, steep) for e in paths]
        got = _distances_of(pairs)
        assert np.isfinite(got).all()
        assert [d.hex() for d in got.tolist()] == [excursion_metric(e1, e2).hex() for e1, e2 in pairs]
        assert [d.hex() for d in got.tolist()] == [_reference_excursion_metric(e1, e2).hex() for e1, e2 in pairs]


def _path(dt, values, zeta=None):
    # zeta defaults to the grid end; pass math.inf for a censored path
    grid = np.arange(len(values)) * dt
    return ExcursionPath(grid, values, zeta=float(grid[-1]) if zeta is None else zeta)


# pairs that reach each branch of excursion_metric: the clip at +-1, flat
# segments, grid ends inside and at the end of the merged grid
EDGE_PAIRS = {
    "differences-exactly-plus-minus-1": (_path(0.1, [2.0, 1.0, 0.5, 1.5, 0.0]), _path(0.1, [1.0, 2.0, 1.5, 0.5, 0.0])),
    "beyond-1-at-both-ends": (_path(0.1, [3.0, 2.5, 4.0, 0.0]), _path(0.1, [0.5, 0.2, 1.0, 0.0])),
    "from-above-1-to-below-minus-1": (_path(0.1, [3.0, 0.0, 2.0, 0.0]), _path(0.1, [0.0, 3.0, 0.5, 0.0])),
    "equal-paths": (_path(0.01, [0.3, 0.7, 1.9, 0.2, 0.0]), _path(0.01, [0.3, 0.7, 1.9, 0.2, 0.0])),
    "both-zero-past-their-lifetimes": (_path(0.1, [0.4, 0.9, 0.0, 0.0, 0.0, 0.0], zeta=0.2),
                                       _path(0.1, [0.6, 0.3, 0.8, 0.0, 0.0, 0.0], zeta=3 * 0.1)),
    "same-dt-prefix-grids": (_path(0.01, np.linspace(1.0, 0.0, 11)),
                             _path(0.01, np.concatenate([np.linspace(0.2, 1.7, 20), np.linspace(1.7, 0.0, 11)]))),
    "censored-ends-together": (_path(0.025, [0.5, 0.8, 1.2, 0.4, 0.9], zeta=math.inf),
                               _path(0.01, [0.1, 0.3, 0.2, 0.6, 0.5, 0.7, 0.9, 1.1, 1.3, 0.2, 0.0])),
    "censored-ends-inside": (_path(0.02, [0.5, 0.8, 1.2, 0.7], zeta=math.inf),
                             _path(0.025, [0.1, 0.3, 2.2, 0.6, 0.5, 0.0])),
    "censored-against-censored": (_path(0.02, [0.5, 0.8, 1.2, 0.7], zeta=math.inf),
                                  _path(0.02, [0.1, 0.3, 2.2, 0.6, 0.5, 0.4], zeta=math.inf)),
}


@pytest.mark.parametrize("name", EDGE_PAIRS)
def test_edge_cases_equal_the_reference_bitwise(name):
    a, b = EDGE_PAIRS[name]
    for e1, e2 in ((a, b), (b, a), (a, a), (b, b)):
        assert excursion_metric(e1, e2).hex() == _reference_excursion_metric(e1, e2).hex()


def _reference_excursion_metric(e1, e2):
    # the two-interp-per-path form excursion_metric replaced, kept as its oracle
    def endpoint_values(path, left, right):
        vl = np.interp(left, path.grid, path.values)
        vr = np.interp(right, path.grid, path.values)
        vl[left >= path.end] = 0.0
        vr[right > path.end] = 0.0
        return vl, vr

    def mean_abs_clipped(lo, hi):
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)

        def antideriv(x):
            inner = np.abs(x) <= 1.0
            return np.where(inner, np.sign(x) * x * x / 2.0, np.sign(x) * (np.abs(x) - 0.5))

        span = hi - lo
        flat = span <= 0.0
        safe_span = np.where(flat, 1.0, span)
        avg = (antideriv(hi) - antideriv(lo)) / safe_span
        return np.where(flat, np.minimum(np.abs(lo), 1.0), avg)

    tau = np.union1d(e1.grid, e2.grid)
    left, right = tau[:-1], tau[1:]
    v1l, v1r = endpoint_values(e1, left, right)
    v2l, v2r = endpoint_values(e2, left, right)
    integral = float(np.sum((right - left) * mean_abs_clipped(v1l - v2l, v1r - v2r)))
    inv1 = 0.0 if math.isinf(e1.zeta) else 1.0 / e1.zeta
    inv2 = 0.0 if math.isinf(e2.zeta) else 1.0 / e2.zeta
    return min(integral, 1.0) + abs(inv1 - inv2)


class TestKilledBM:
    def test_deterministic_for_fixed_seed(self):
        p1 = sample_killed_bm(1.0, 1e-3, 5.0, seed=123)
        p2 = sample_killed_bm(1.0, 1e-3, 5.0, seed=123)
        assert np.array_equal(p1.values, p2.values)
        assert p1.zeta == p2.zeta and p1.censored == p2.censored

    def test_survival_probability_matches_reflection_formula(self):
        # P_x(T_0 > t) = 2 Phi(x / sqrt(t)) - 1
        eps, t, dt, n = 1.0, 1.0, 1e-3, 4000
        alive = 0
        for i in range(n):
            p = sample_killed_bm(eps, dt, horizon=t, seed=(777, i))
            alive += p.censored or p.zeta > t
        target = 2.0 * norm.cdf(eps / math.sqrt(t)) - 1.0
        se = math.sqrt(target * (1 - target) / n)
        assert abs(alive / n - target) < 4.0 * se

    def test_small_eps_absorption_fraction(self):
        eps, dt, n = 0.01, 1e-4, 3000
        absorbed = sum(
            sample_killed_bm(eps, dt, horizon=1.0, seed=(41, i)).zeta <= 1.0 for i in range(n)
        )
        target = 1.0 - eps * math.sqrt(2.0 / math.pi)
        se = math.sqrt(target * (1 - target) / n)
        assert abs(absorbed / n - target) < 4.0 * se

    def test_path_invariants(self):
        for i in range(50):
            p = sample_killed_bm(0.3, 1e-3, 2.0, seed=(5, i))
            assert p.values[0] == 0.3
            if not p.censored:
                assert p.values[-1] == 0.0
                assert p.zeta == pytest.approx(p.grid[-1])


class TestFunctional:
    @pytest.mark.parametrize("t_end", [0.0, -1.0])
    def test_window_support_of_no_length_rejected(self, t_end):
        with pytest.raises(ValueError, match=f"f_support_end must be finite and positive, got {t_end}"):
            ExcursionFunctional(h=step_indicator(1.0), h_constant_after=1.0,
                                pairs=((smoothed_bump(0.2, 0.8, 0.1), t_end, lambda x: x),))

    @pytest.mark.parametrize("t_end", [math.nan, math.inf])
    def test_window_end_that_is_not_finite_is_named(self, t_end):
        # NaN passed t_end <= 0; inf ended in an OverflowError downstream
        with pytest.raises(ValueError, match=f"f_support_end must be finite and positive, got {t_end}"):
            ExcursionFunctional(h=step_indicator(1.0), h_constant_after=1.0,
                                pairs=((smoothed_bump(0.2, 0.8, 0.1), t_end, lambda x: x),))

    @pytest.mark.parametrize("h_constant_after", [math.nan, math.inf, -0.5])
    def test_h_constant_after_that_is_not_finite_and_nonnegative_is_named(self, h_constant_after):
        # NaN gave a NaN h_tail_value, so empirical_lhs returned (nan, nan) and
        # the targets ended in "cannot convert float NaN to integer"; inf
        # ended in an OverflowError
        with pytest.raises(ValueError, match=f"h_constant_after must be finite and nonnegative, got {h_constant_after}"):
            ExcursionFunctional(h=step_indicator(1.0), h_constant_after=h_constant_after,
                                pairs=((smoothed_bump(0.2, 0.8, 0.1), 0.8, lambda x: x),))

    def test_bump_narrower_than_its_shoulders_rejected(self):
        with pytest.raises(ValueError, match="bump too narrow for the requested shoulder width"):
            smoothed_bump(0.5, 0.6, 0.05)

    def test_a_level_weight_that_is_nan_at_0_is_refused(self):
        # abs(nan) > 1e-12 is False, so this used to be accepted
        with pytest.raises(ValueError, match="level weights must vanish at 0"):
            ExcursionFunctional(h=step_indicator(1.0), h_constant_after=1.0,
                                pairs=((smoothed_bump(0.2, 0.8, 0.1), 0.8, lambda x: x + math.nan),))

    @pytest.mark.parametrize("args, message", [
        ((math.nan,), "threshold must be finite and nonnegative, got nan"),
        ((-1.0,), "threshold must be finite and nonnegative, got -1.0"),
        ((1.0, math.nan), "width must be finite and nonnegative, got nan"),
        ((1.0, -0.5), "width must be finite and nonnegative, got -0.5"),
    ], ids=["threshold-nan", "threshold-negative", "width-nan", "width-negative"])
    def test_a_bad_step_is_named(self, args, message):
        # a NaN threshold or width used to give NaN values, a negative width a hard step
        with pytest.raises(ValueError, match=message):
            step_indicator(*args)

    def test_a_threshold_that_is_a_str_is_named(self):
        # "1" used to end in a TypeError from its comparison with 0.0
        with pytest.raises(ValueError, match="threshold must be a real number, got '1'"):
            step_indicator("1")

    @pytest.mark.parametrize("start, width, message", [
        (math.nan, 1.0, "start must be finite and nonnegative, got nan"),
        (-1.0, 1.0, "start must be finite and nonnegative, got -1.0"),
        (1.0, 0.0, "width must be finite and positive, got 0.0"),
        (1.0, math.inf, "width must be finite and positive, got inf"),
    ], ids=["start-nan", "start-negative", "width-zero", "width-inf"])
    def test_a_bad_cutoff_is_named(self, start, width, message):
        # width 0 used to divide by zero, a NaN start to give NaN values
        with pytest.raises(ValueError, match=message):
            smoothed_cutoff(start, width)

    @pytest.mark.parametrize("a, b, width, message", [
        (math.nan, 1.5, 0.1, "a must be finite and nonnegative, got nan"),
        (0.5, math.inf, 0.1, "b must be finite and nonnegative, got inf"),
        (0.5, 1.5, -0.1, "width must be finite and positive, got -0.1"),
        (0.5, 1.5, 0.0, "width must be finite and positive, got 0.0"),
    ], ids=["a-nan", "b-inf", "width-negative", "width-zero"])
    def test_a_bad_bump_is_named(self, a, b, width, message):
        # width -0.1 used to give a bump that is identically 0, width 0 to divide by zero
        with pytest.raises(ValueError, match=message):
            smoothed_bump(a, b, width)

    def test_unit_functional(self):
        F = ExcursionFunctional(h=lambda r: np.ones_like(np.asarray(r, float)), h_constant_after=0.0)
        assert eval_functional(F, const_path(2.0, 1.0)) == 1.0

    def test_window_integral_of_constant_path(self):
        f = smoothed_bump(0.0, 1.0, 0.05)
        F = ExcursionFunctional(
            h=lambda r: np.ones_like(np.asarray(r, float)),
            h_constant_after=0.0,
            pairs=((f, 1.0, lambda x: np.asarray(x, float)),),
        )
        c = 0.6
        val = eval_functional(F, const_path(c, 1.0, dt=0.002))
        mass, _ = quad(f, 0.0, 1.0)
        assert val == pytest.approx(c * mass, rel=1e-4)

    def test_short_lifetime_kills_window(self):
        f = smoothed_bump(1.0, 2.0, 0.1)
        F = ExcursionFunctional(
            h=lambda r: np.ones_like(np.asarray(r, float)),
            h_constant_after=0.0,
            pairs=((f, 2.0, lambda x: np.minimum(np.asarray(x, float), 1.0)),),
        )
        e = const_path(0.8, 0.5, dt=0.005)  # dies before the window opens
        padded = ExcursionPath(
            np.arange(0, 401) * 0.005,
            np.concatenate([e.values, np.zeros(300)]),
            zeta=e.zeta,
        )
        assert eval_functional(F, padded) == 0.0

    def test_level_weight_must_vanish_at_zero(self):
        with pytest.raises(ValueError, match="vanish"):
            ExcursionFunctional(
                h=lambda r: 1.0,
                h_constant_after=0.0,
                pairs=((lambda t: t, 1.0, lambda x: np.asarray(x, float) + 1.0),),
            )

    def test_censored_with_late_h_raises(self):
        # zeta = inf is the only record of censoring
        F = ExcursionFunctional(h=step_indicator(5.0), h_constant_after=5.0)
        grid = np.arange(0, 101) * 0.01
        censored = ExcursionPath(grid, np.full(101, 0.5), zeta=math.inf)
        assert censored.censored and not const_path(0.5, 1.0).censored
        with pytest.raises(RuntimeError, match="horizon too short"):
            eval_functional(F, censored)
        # a window that runs past the grid end leaves F undetermined too
        g = lambda x: np.minimum(np.asarray(x, float), 1.0)
        F = ExcursionFunctional(h=lambda r: np.ones_like(np.asarray(r, float)), h_constant_after=0.5,
                                pairs=((lambda t: np.ones_like(t), 2.0, g),))
        with pytest.raises(RuntimeError, match="horizon too short"):
            eval_functional(F, censored)

    def test_grid_refinement_stability(self):
        # halving dt moves the value by O(dt) on a deterministic trace
        f = smoothed_bump(0.2, 0.9, 0.1)
        g = lambda x: np.minimum(np.asarray(x, float), 1.0)
        F = ExcursionFunctional(
            h=lambda r: np.ones_like(np.asarray(r, float)), h_constant_after=0.0,
            pairs=((f, 0.9, g),),
        )
        trace = lambda t: 0.5 + 0.4 * np.sin(3.0 * t)

        def path(dt):
            grid = np.arange(0, int(round(1.0 / dt)) + 1) * dt
            vals = trace(grid)
            vals[-1] = 0.0
            return ExcursionPath(grid, vals, zeta=float(grid[-1]))

        vals = [eval_functional(F, path(dt)) for dt in (0.02, 0.01, 0.005)]
        assert abs(vals[1] - vals[0]) < 5.0 * 0.02
        assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0]) + 1e-12


class TestEmpiricalLhs:
    def test_unit_functional_scales_exactly(self):
        F = ExcursionFunctional(h=lambda r: np.ones_like(np.asarray(r, float)), h_constant_after=0.0)
        mean, se = empirical_lhs(F, eps=0.25, n_paths=200, dt=1e-3, horizon=0.02, seed=1)
        assert mean == pytest.approx(4.0, abs=1e-12)
        assert se == 0.0

    def test_scalar_valued_h_is_a_constant(self):
        F = ExcursionFunctional(h=lambda r: 2.0, h_constant_after=0.0)
        assert empirical_lhs(F, eps=0.25, n_paths=200, dt=1e-3, horizon=0.02, seed=1) == (8.0, 0.0)

    def test_reproducible_and_partition_independent(self):
        F = ExcursionFunctional(h=step_indicator(0.1), h_constant_after=0.1)
        a = empirical_lhs(F, 0.05, 400, 1e-3, 0.5, seed=9)
        b = empirical_lhs(F, 0.05, 400, 1e-3, 0.5, seed=9)
        assert a == b

    def test_minimum_path_count_enforced(self):
        F = ExcursionFunctional(h=step_indicator(0.1), h_constant_after=0.1)
        with pytest.raises(ValueError, match="100"):
            empirical_lhs(F, 0.05, 50, 1e-3, 0.5, seed=9)

    def test_a_too_short_horizon_is_refused_before_any_draw(self, monkeypatch):
        # h steps at 3 and the paths stop at 1: whether one of 100 paths from 0.01 lived to 1 used to
        # decide, seed by seed, between "horizon too short" and a quiet (0.0, 0.0) against a target near 0.46
        calls = block_grids(monkeypatch)
        F = ExcursionFunctional(h=step_indicator(3.0), h_constant_after=3.0)
        for seed in range(12):
            with pytest.raises(RuntimeError, match="horizon too short: h not yet constant at censoring time"):
                empirical_lhs(F, 0.01, 100, 0.01, 1.0, seed=seed)
        assert calls == []

    def test_nonpositive_eps_or_dt_rejected(self):
        F = ExcursionFunctional(h=step_indicator(0.1), h_constant_after=0.1)
        for eps, dt in ((-0.1, 1e-3), (0.0, 1e-3), (0.05, 0.0)):
            with pytest.raises(ValueError, match="positive"):
                empirical_lhs(F, eps, 100, dt, 0.5, seed=9)

    def test_lifetime_tail_at_moderate_eps(self):
        t = 0.5
        F = ExcursionFunctional(h=step_indicator(t), h_constant_after=t)
        eps = 0.05
        mean, se = empirical_lhs(F, eps, 20_000, 1e-3, horizon=t + 0.1, seed=11)
        exact = (2.0 * norm.cdf(eps / math.sqrt(t)) - 1.0) / eps
        assert abs(mean - exact) < 3.0 * se


def replay_block(seed, block, n, eps, times):
    """The paths of one lockstep block over the grid ``times``, materialised from the block's draws.

    Redraws the block's stream chunk by chunk and applies the kill rule path
    by path and step by step, rounded as the simulator rounds.
    """
    from measura.excursion import _BLOCK, _CELL_CAP, _FIRST_CHUNK

    assert n <= _BLOCK
    rng = np.random.default_rng((seed, block))
    pieces = [[np.array([eps])] for _ in range(n)]
    zeta = [math.inf] * n
    x = [eps] * n
    total = times.size - 1
    alive, done, size = list(range(n)), 0, _FIRST_CHUNK
    while alive and done < total:
        steps = min(size, total - done, max(1, _CELL_CAP // len(alive)))
        gaps = np.diff(times[done : done + steps + 1])
        z = rng.standard_normal((len(alive), steps))
        u = rng.random((len(alive), steps))
        survivors = []
        for r, i in enumerate(alive):
            row = x[i] + np.cumsum(z[r] * np.sqrt(gaps))
            for k in range(steps):
                before = row[k - 1] if k else x[i]
                if row[k] <= 0.0 or u[r, k] < np.exp(min(0.0, before * row[k] * (-2.0 / gaps[k]))):
                    pieces[i].append(np.append(row[:k], 0.0))
                    zeta[i] = float(times[done + k + 1])
                    break
            else:
                pieces[i].append(row)
                x[i] = row[-1]
                survivors.append(i)
        alive, done, size = survivors, done + steps, 2 * size
    paths = []
    for i in range(n):
        values = np.concatenate(pieces[i])
        paths.append(ExcursionPath(times[: values.size], values, zeta[i]))
    return paths


def block_grids(monkeypatch):
    """Record the grid times and the result of every ``_lockstep_block`` call made after this."""
    from measura import excursion

    calls, block = [], excursion._lockstep_block

    def spy(F, windows, eps, times, rng, n):
        zeta, values = block(F, windows, eps, times, rng, n)
        calls.append((times, zeta, values))
        return zeta, values

    monkeypatch.setattr(excursion, "_lockstep_block", spy)
    return calls


def full_grid_lhs(F, eps, n_paths, dt, horizon, seed):
    """``empirical_lhs`` with every path stepped on the whole dt-grid to the horizon."""
    from measura.excursion import _BLOCK, _lockstep_block, _window_weights

    max_steps = int(round(horizon / dt))
    windows, times = _window_weights(F, dt), np.arange(max_steps + 1) * dt
    vals = np.concatenate([
        _lockstep_block(F, windows, eps, times, np.random.default_rng((seed, b)), min(_BLOCK, n_paths - start))[1]
        for b, start in enumerate(range(0, n_paths, _BLOCK))
    ])
    return vals.mean() / eps, vals.std(ddof=1) / math.sqrt(n_paths) / eps


class TestLockstepSimulator:
    @pytest.mark.parametrize("eps", [0.3, 1.0])
    def test_single_path_is_the_replayed_block_row(self, eps):
        # sample_killed_bm and the lockstep blocks share one stepper: with the
        # stream (s, 0) its path is row 0 of block 0 of a one-path run
        seed, dt, horizon = 606, 1e-3, 1.0
        p = sample_killed_bm(eps, dt, horizon, seed=(seed, 0))
        q = replay_block(seed, 0, 1, eps, np.arange(int(round(horizon / dt)) + 1) * dt)[0]
        assert np.array_equal(p.values, q.values) and np.array_equal(p.grid, q.grid)
        assert p.zeta == q.zeta and p.censored == q.censored
        assert p.censored == (eps == 1.0)

    def test_pathwise_match_with_single_path_oracle(self, monkeypatch):
        # the lhs steps only the grid points F reads; its paths, replayed on
        # that grid and carried onto the dt-grid by interpolation (the filled
        # points have window weight 0), give the values it computes
        eps, dt, horizon, n, seed = 0.3, 1e-3, 1.0, 200, 4242
        g = lambda x: np.minimum(np.asarray(x, float), 1.0)
        h = lambda r: 1.0 - 0.5 * step_indicator(0.2, width=0.4)(r)  # 0.5 after 0.6
        F = ExcursionFunctional(h=h, h_constant_after=0.6, pairs=((smoothed_bump(0.05, 0.5, 0.05), 0.5, g),))

        calls = block_grids(monkeypatch)
        mean, se = empirical_lhs(F, eps, n, dt, horizon, seed)
        [(times, zeta, values)] = calls
        steps = np.rint(times / dt).astype(int)
        assert np.array_equal(times, steps * dt) and steps[0] == 0 and steps[-1] == 1000
        # f is 0 up to 0.05 and h is constant past 0.6: no step is read there
        assert not np.any((steps > 0) & (steps <= 50)) and not np.any((steps > 600) & (steps < 1000))

        paths = []
        for p in replay_block(seed, 0, n, eps, times):
            grid = np.arange(steps[p.grid.size - 1] + 1) * dt
            paths.append(ExcursionPath(grid, np.interp(grid, p.grid, p.values), p.zeta))
        assert zeta.tolist() == [p.zeta for p in paths]
        oracle = np.array([eval_functional(F, p) for p in paths])
        np.testing.assert_allclose(values, oracle, rtol=1e-12, atol=0.0)
        assert np.count_nonzero(oracle) >= 20
        assert 0 < sum(p.censored for p in paths) < n

        assert mean == pytest.approx(oracle.mean() / eps, rel=1e-12)
        assert se == pytest.approx(oracle.std(ddof=1) / eps / math.sqrt(n), rel=1e-10)

    def test_tail_claim_steps_to_t_and_one_dt_past_it(self, monkeypatch):
        # the claim's step is t itself
        calls = block_grids(monkeypatch)
        excursion_claim(0.01, 100, seeds=(1, 2, 3))
        assert [c[0].tolist() for c in calls] == [[0.0, t, 2 * t] for t in EXCURSION_TIMES]

    @pytest.mark.parametrize("seeds", [(1,), (1, 2), (1, 2, 3, 4)])
    def test_tail_claim_needs_one_seed_per_threshold(self, seeds):
        # zip used to drop the thresholds past the last seed: (1,) gave 1 row and a passing verdict
        with pytest.raises(ValueError, match=re.escape(f"seeds must hold one seed per threshold t in {EXCURSION_TIMES}, "
                                                       f"got {len(seeds)}")):
            excursion_claim(0.01, 200, seeds)

    @pytest.mark.parametrize("eps", [0.01, 0.2])
    @pytest.mark.parametrize("root", [1, 7, 412])
    def test_tail_claim_is_the_fine_grid_lhs_bit_for_bit(self, root, eps):
        # the fine grid {0, t, t + 1e-4} draws the same first step over the same
        # gap t as {0, t, 2t}; a kill after t gives h = 1 on either, so the
        # second step decides nothing
        seeds = [3 * root + i for i in range(3)]
        rows, _ = excursion_claim(eps, 1500, seeds)
        for row, seed in zip(rows, seeds):
            F = ExcursionFunctional(h=step_indicator(row["t"]), h_constant_after=row["t"])
            assert (row["lhs"], row["se"]) == empirical_lhs(F, eps, 1500, 1e-4, horizon=row["t"] + 1e-4, seed=seed)

    def test_merged_grid_lhs_matches_full_grid(self):
        # criterion 09's inputs: the merged grid skips [0, 0.5], where f is 0
        # and h is 1; the two estimates share no stream
        F = ExcursionFunctional(h=smoothed_cutoff(1.0, 1.0), h_constant_after=2.0,
                                pairs=((smoothed_bump(0.5, 1.5, 0.1), 1.5, lambda x: np.minimum(x, 1.0)),))
        merged, merged_se = empirical_lhs(F, 0.01, 100_000, 1e-4, 2.0, seed=9001)
        full, full_se = full_grid_lhs(F, 0.01, 100_000, 1e-4, 2.0, seed=9002)
        assert abs(merged - full) <= 3.0 * math.hypot(merged_se, full_se)

    def test_survival_matches_closed_form(self):
        # (1/eps) P_eps(zeta > t) = erf(eps / sqrt(2t)) / eps, exact at grid times
        eps, dt = 0.05, 1e-3
        for i, t in enumerate((0.05, 0.2, 0.5, 1.0)):
            F = ExcursionFunctional(h=step_indicator(t), h_constant_after=t)
            mean, se = empirical_lhs(F, eps, 20_000, dt, horizon=t + 0.05, seed=(31, i))
            exact = math.erf(eps / math.sqrt(2.0 * t)) / eps
            assert abs(mean - exact) < 3.0 * se

    def test_working_memory_bounded_by_cell_cap(self):
        # at eps = 1 most paths outlive the horizon; the peak must not grow
        # with the number of paths or with the number of time steps
        import tracemalloc

        from measura.excursion import _CELL_CAP

        g = lambda x: np.minimum(np.asarray(x, float), 1.0)
        F = ExcursionFunctional(h=step_indicator(0.05), h_constant_after=0.05,
                                pairs=((smoothed_bump(0.0, 0.05, 0.01), 0.05, g),))
        peaks = []
        for n_paths, dt, horizon in ((2048, 1e-3, 0.1), (100_000, 1e-3, 0.1), (100, 1e-4, 10.0)):
            tracemalloc.start()
            try:
                empirical_lhs(F, 1.0, n_paths, dt, horizon, seed=5)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert max(peaks) <= 10 * _CELL_CAP * 8
        assert max(peaks) <= 1.25 * peaks[0]


# criterion 09's functional, as functional_claim builds it
_CRITERION_09 = ExcursionFunctional(h=smoothed_cutoff(1.0, 1.0), h_constant_after=2.0,
                                    pairs=((smoothed_bump(0.5, 1.5, 0.1), 1.5, lambda x: np.minimum(x, 1.0)),))


def _linear_functional(*windows):
    """h = 1, so the hitting table is exactly 1, and g(y) = y on each (f, f_support_end) window.

    Killed Brownian motion is a martingale absorbed at 0, so (1/eps) E_eps[e_t; t < zeta] = 1 and, under
    the excursion measure, n(e_s e_t) = n(e_min(s,t)^2) = 2 sqrt(2 min(s, t)/pi): each target is a closed
    form in the window weights.
    """
    return ExcursionFunctional(h=lambda r: np.ones_like(np.asarray(r, float)), h_constant_after=0.0,
                               pairs=tuple((f, t_end, lambda y: np.asarray(y, float)) for f, t_end in windows))


class TestTargetRhs:
    def test_entrance_density_mode(self):
        # kappa is the length intensity (2 pi r^3)^(-1/2), the reference of the hitting-density tests; with it,
        # 2 kappa(1) y^2 exp(-y^2/2), the law of rho_1, has mass 1 and its mode at sqrt(2)
        for r in (0.5, 1.0, 2.0):
            assert kappa(r) == pytest.approx((2.0 * math.pi * r**3) ** -0.5, rel=1e-15)
        mass, _ = quad(lambda y: 2.0 * float(kappa(1.0)) * y * y * math.exp(-y * y / 2.0), 0.0, np.inf)
        assert mass == pytest.approx(1.0, abs=1e-12)
        ys = np.linspace(0.01, 4.0, 2000)
        dens = 2.0 * kappa(1.0) * ys**2 * np.exp(-(ys**2) / 2.0)
        assert ys[np.argmax(dens)] == pytest.approx(math.sqrt(2.0), abs=2e-3)

    def test_levy_density_normalizes(self):
        for alpha in (0.2, 1.0, 3.7):
            val, _ = quad(lambda r: float(levy_hitting_density(alpha, r)), 0.0, np.inf, limit=200)
            assert val == pytest.approx(1.0, abs=1e-3)

    def test_levy_density_values_and_shapes(self):
        scalar = levy_hitting_density(0.7, 0.3)
        assert scalar.shape == () and math.isfinite(float(scalar))
        assert np.all(levy_hitting_density(np.array([0.2, 1.0, 3.0])[:, None], [-1.0, 0.0]) == 0.0)
        alpha = np.geomspace(1e-3, 1.0, 400)[:, None]
        r = np.geomspace(0.05, 40.0, 678)  # exponents down to -10: no rounding blow-up, no underflow
        val = levy_hitting_density(alpha, r)
        assert val.shape == (400, 678)
        np.testing.assert_allclose(val, alpha * kappa(r) * np.exp(-(alpha**2) / (2.0 * r)), rtol=1e-14)

    def test_levy_density_allocates_only_its_result(self):
        # _hitting_kernel builds its (levels x nodes) table with this call
        import tracemalloc

        alpha = np.geomspace(1e-7, 10.0, 400)[:, None]
        r = np.geomspace(2e-16, 3.0, 678)
        tracemalloc.start()
        try:
            val = levy_hitting_density(alpha, r)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * val.nbytes

    @staticmethod
    def _quad_hitting(h, h_tail, s_max, kinks, t, a):
        # E h(t + T_a) with T_a = a^2/Z^2 (reflection principle), adaptive in z
        # up to 12: below a / sqrt(s_max - t) the hit lands where h = h_tail
        lo = a / math.sqrt(s_max - t) if t < s_max else math.inf
        if lo >= 12.0:
            return h_tail
        points = sorted(p for p in [a, 3 * a, 10 * a] + [a / math.sqrt(k - t) for k in kinks if k > t] if p > lo)
        integrand = lambda z: (float(h(t + a * a / (z * z))) - h_tail) * math.sqrt(2.0 / math.pi) * math.exp(
            -z * z / 2.0)
        val, _ = quad(integrand, lo, 12.0, points=points, limit=500, epsabs=1e-13, epsrel=1e-12)
        return h_tail + val

    @pytest.mark.parametrize("h, s_max, kinks", [
        (smoothed_cutoff(1.0, 1.0), 2.0, (1.0, 2.0)),
        (step_indicator(0.5, width=1.0), 1.5, (0.5, 1.5)),
    ], ids=["criterion-09-cutoff", "smoothed-step"])
    def test_hitting_kernel_matches_quad(self, h, s_max, kinks):
        # small levels put the spike of l^a at s ~ a^2/3, far below any
        # uniform r grid; t = 0.999 sits just below the kink of h at 1
        from measura.excursion import _hitting_kernel

        h_tail = float(h(s_max + 1.0))
        hit = _hitting_kernel(h, h_tail, s_max)
        levels = np.array([1e-5, 1e-3, 0.02, 0.05, 0.2, 0.5, 1.0, 3.0])
        for t in (0.0, 0.3, 0.5, 0.999, 1.0, 1.2, 1.49, 1.8, 2.5):
            exact = [self._quad_hitting(h, h_tail, s_max, kinks, t, a) for a in levels]
            np.testing.assert_allclose(hit(t, levels), exact, rtol=0.0, atol=1e-6)
            # rho = 0: the a -> 0 limit, a hit at s = 0, is h(t)
            np.testing.assert_allclose(hit(t, np.zeros(3)), float(h(t)), rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("h, s_max, kinks", [
        (smoothed_cutoff(1.0, 1.0), 2.0, (1.0, 2.0)),
        (step_indicator(0.5, width=1.0), 1.5, (0.5, 1.5)),
    ], ids=["criterion-09-cutoff", "smoothed-step"])
    def test_hitting_kernel_block_matches_quad(self, h, s_max, kinks):
        # the same times as one block of table rows, read level by level
        from measura.excursion import _hitting_kernel

        h_tail = float(h(s_max + 1.0))
        hit = _hitting_kernel(h, h_tail, s_max)
        levels = np.array([1e-5, 1e-3, 0.02, 0.05, 0.2, 0.5, 1.0, 3.0])
        times = np.array([0.0, 0.3, 0.5, 0.999, 1.0, 1.2, 1.49, 1.8, 2.5])
        for t, row in zip(times, hit.rows(times), strict=True):
            exact = [self._quad_hitting(h, h_tail, s_max, kinks, t, a) for a in levels]
            np.testing.assert_allclose(hit.read(row, levels), exact, rtol=0.0, atol=1e-6)

    def test_hitting_kernel_block_rows_match_one_time_calls(self):
        # 40 times span three blocks; the block product and the one-row
        # product sum in different orders, so agree to rounding only
        from measura.excursion import _hitting_kernel

        h = smoothed_cutoff(1.0, 1.0)
        hit = _hitting_kernel(h, 0.0, 2.0)
        times = np.linspace(0.5, 1.5, 40)
        block = np.array(list(hit.rows(times)))
        one_at_a_time = np.array([next(hit.rows([t])) for t in times])
        np.testing.assert_allclose(block, one_at_a_time, rtol=0.0, atol=1e-14)
        levels = np.array([0.0, 1e-3, 0.3, 2.0])
        for t, row in zip(times, block):
            np.testing.assert_allclose(hit.read(row, levels), hit(t, levels), rtol=0.0, atol=1e-14)

    def test_pair_free_functional_rejected(self):
        # the pair-free integral ∫ h kappa has no Bessel expectation to estimate
        F = ExcursionFunctional(h=step_indicator(1.0), h_constant_after=1.0)
        with pytest.raises(ValueError, match="at least one window pair"):
            target_rhs(F, n_bessel=10, dt=0.01, r_grid=np.linspace(0.0, 5.0, 10), seed=0)

    @staticmethod
    def _constant_h_target():
        # with h = 1 the r-integral is exactly 1, so the target reduces to
        # int f(t) E[g(rho_t)/rho_t] dt with rho_t = sqrt(t) * |N(0, I_3)|
        f = smoothed_bump(0.5, 1.5, 0.1)
        g = lambda x: np.minimum(np.asarray(x, float), 1.0)
        F = ExcursionFunctional(
            h=lambda r: np.ones_like(np.asarray(r, float)),
            h_constant_after=0.0,
            pairs=((f, 1.5, g),),
        )

        def chi3_moment(t):
            # E[min(R, 1)/R] for R = sqrt(t)|Z|, Z three-dimensional standard normal
            dens = lambda y: math.sqrt(2.0 / math.pi) * y * y * math.exp(-y * y / 2.0)
            s = math.sqrt(t)
            a, _ = quad(lambda y: dens(y), 0.0, 1.0 / s)
            b, _ = quad(lambda y: dens(y) / (s * y), 1.0 / s, 40.0)
            return a + b

        expected, _ = quad(lambda t: f(t) * chi3_moment(t), 0.5, 1.5, limit=200)
        return F, expected

    def test_one_pair_constant_h_matches_bessel_moment(self):
        F, expected = self._constant_h_target()
        val, se = target_rhs(F, n_bessel=40_000, dt=0.01, r_grid=np.linspace(0, 8, 200), seed=3)
        assert abs(val - expected) < max(3.0 * se, 2e-3)

    def test_oracle_with_constant_h_matches_bessel_moment(self):
        # the oracle's t-rule is the trapezoid at dt = 0.01 on a C^1 window
        F, expected = self._constant_h_target()
        assert target_oracle(F, dt=0.01) == pytest.approx(expected, abs=1e-6)

    def test_target_rhs_matches_the_oracle_at_criterion_09_inputs(self):
        # the Bessel rhs at the inputs criterion 09 used before it compared
        # with target_oracle: the Monte Carlo mean lies within 3 of its own
        # standard errors of its deterministic value
        F = _CRITERION_09
        val, se = target_rhs(F, n_bessel=30_000, dt=5e-3, r_grid=np.linspace(0.0, 8.0, 200), seed=910)
        oracle = target_oracle(F, dt=5e-3)
        assert abs(val - oracle) <= 3.0 * se
        # the killed-Brownian value at eps > 0 tends to the Bessel limit
        assert abs(target_oracle(F, dt=5e-3, eps=1e-3) - oracle) <= 1e-6

    def test_functional_claim_compares_the_lhs_with_the_finite_eps_oracle(self):
        [row], verdicts = functional_claim(0.01, 2000, seed=5)
        assert (row["lhs"], row["lhs_se"]) == empirical_lhs(_CRITERION_09, 0.01, 2000, dt=1e-4, horizon=2.0, seed=5)
        assert row["target"] == target_oracle(_CRITERION_09, 1e-3, 0.01)
        assert row["z"] == (row["lhs"] - row["target"]) / row["lhs_se"]
        assert verdicts == {"lhs_matches_target_within_3se": True}

    def test_oracle_at_the_claims_step_has_converged(self):
        # functional_claim reads the oracle at dt 1e-3; at eps = 0.01 the lhs SE is about 5e-3
        assert abs(target_oracle(_CRITERION_09, 1e-3, 0.01) - target_oracle(_CRITERION_09, 5e-3, 0.01)) <= 1e-8

    def test_finite_eps_oracle_tends_to_the_limit_at_rate_eps_squared(self):
        # (1/eps) q_t(eps, y) = (2y/t) phi_t(y) [1 + eps^2 (y^2 - 3t)/(6t^2) + O(eps^4)], so the
        # gap over eps^2 settles near its eps^2 coefficient, about -0.0368 here; the eps = 0
        # density at eps > 0, or a dropped 1/eps, moves the quotient far off
        limit = target_oracle(_CRITERION_09, 5e-3)
        q1, q2 = ((target_oracle(_CRITERION_09, 5e-3, eps) - limit) / eps**2 for eps in (0.1, 0.05))
        assert abs(q1 - q2) <= 1e-4
        assert -0.038 <= q1 <= -0.036 and -0.038 <= q2 <= -0.036

    @pytest.mark.parametrize("dt", [5e-3, 1e-3])
    def test_the_eps_0_oracle_drops_the_t_0_term_that_eps_above_0_keeps(self, dt):
        # the window from 0 weighs t = 0 by w_0 = dt/2: at eps > 0 the path sits at eps there and the
        # oracle is sum w; at eps = 0 it is sum w - w_0, without the term w_0 g(eps)/eps -> w_0 g'(0),
        # as in target_rhs, whose rho starts at 0
        F = _linear_functional((smoothed_cutoff(0.5, 0.2), 0.7))
        [(w, _)] = _window_weights(F, dt)
        assert w[0] == dt / 2.0
        for eps in (1e-3, 0.01, 0.1, 0.5):
            assert abs(target_oracle(F, dt, eps) - math.fsum(w)) <= 1e-12
        assert abs(target_oracle(F, dt) - (math.fsum(w) - w[0])) <= 1e-12
        val, se = target_rhs(F, n_bessel=200, dt=dt, r_grid=[0.0, 1.0], seed=1)
        assert abs(val - (math.fsum(w) - w[0])) <= 1e-12 and se <= 1e-12

    def test_one_pair_linear_g_returns_the_window_sum(self):
        # with g(y) = y each Bessel path weighs g(rho)/rho = 1 at every step: the mean is sum w and the SE rounding
        F = _linear_functional((smoothed_bump(0.5, 1.5, 0.1), 1.5))
        [(w, _)] = _window_weights(F, 0.02)
        val, se = target_rhs(F, n_bessel=2000, dt=0.02, r_grid=[0.0, 1.0], seed=3)
        assert abs(val - math.fsum(w)) <= 1e-12 and se <= 1e-12

    def test_two_pair_linear_g_matches_the_closed_form(self):
        # the double window sum of n(e_s e_t) = 2 sqrt(2 min(s, t)/pi) is 0.22142504; over seeds 100-299 at
        # 20 000 paths the per-seed z had mean -0.08, SD 0.95 and no |z| above 2.4; seed 100 reads z = -0.30
        F = _linear_functional((smoothed_bump(0.1, 0.6, 0.1), 0.6), (smoothed_bump(0.3, 1.0, 0.1), 1.0))
        (w1, _), (w2, _) = _window_weights(F, 0.02)
        t1, t2 = np.arange(w1.size) * 0.02, np.arange(w2.size) * 0.02
        exact = math.fsum((np.outer(w1, w2) * 2.0 * np.sqrt(2.0 * np.minimum.outer(t1, t2) / math.pi)).ravel())
        assert exact == pytest.approx(0.22142504, abs=1e-8)
        val, se = target_rhs(F, n_bessel=20_000, dt=0.02, r_grid=[0.0, 1.0], seed=100)
        assert abs(val - exact) <= 3.0 * se

    def test_oracle_takes_one_pair(self):
        g = lambda x: np.minimum(np.asarray(x, float), 1.0)
        pair = (smoothed_bump(0.2, 0.8, 0.1), 0.8, g)
        for pairs in ((), (pair, pair)):
            F = ExcursionFunctional(h=smoothed_cutoff(1.0, 1.0), h_constant_after=2.0, pairs=pairs)
            with pytest.raises(ValueError, match="one window pair"):
                target_oracle(F, dt=0.02)

    @staticmethod
    def _naive_two_pair_mesh(F, n_bessel, dt, seed):
        """Mean over paths of the explicit double sum over time-index pairs (j1, j2).

        Each window has its own trapezoid weights: dt inside, dt / 2 at 0 and
        at its last step, 0 past it.  H(t, rho_t) comes from the hitting kernel
        at every step.  rho takes the same per-step draws as
        target_rhs: the norm of a 3-d Brownian motion from 0, stepped from 0
        to the first step some window weighs, then from each weighed step to
        the next; rho is left at 0 on the steps no window weighs.
        """
        from measura.excursion import _hitting_kernel

        t_max = max(t_end for _, t_end, _ in F.pairs)
        times = np.arange(int(math.ceil(t_max / dt)) + 1) * dt
        wf = []
        for f, t_end, g in F.pairs:
            inside = times <= t_end + 1e-12
            w = np.where(inside, dt, 0.0)
            w[0] = w[np.flatnonzero(inside)[-1]] = 0.5 * dt
            wf.append(w * np.where(inside, f(times), 0.0))
        weighed = np.flatnonzero(np.any(np.array(wf) != 0.0, axis=0))
        rng = np.random.default_rng(seed)
        pos = np.zeros((n_bessel, 3))
        rho = np.zeros((n_bessel, times.size))
        prev = 0
        for j in weighed[weighed > 0]:
            pos += rng.standard_normal((n_bessel, 3)) * math.sqrt(times[j] - times[prev])
            rho[:, j] = np.linalg.norm(pos, axis=1)
            prev = j
        hit = _hitting_kernel(F.h, F.h_tail_value, F.h_constant_after)
        hv = np.column_stack([hit(t, a) for t, a in zip(times, rho.T)])
        q = np.where(rho > 0, hv / np.where(rho > 0, rho, 1.0), 0.0)
        a = [w * g(rho) for w, (_, _, g) in zip(wf, F.pairs)]
        # weighted at the later index max(j1, j2)
        jb = np.maximum.outer(np.arange(times.size), np.arange(times.size))
        return float(np.mean([np.sum(np.outer(a[0][i], a[1][i]) * q[i][jb]) for i in range(n_bessel)]))

    def test_two_pair_decomposition_matches_naive_mesh(self):
        # the prefix decomposition must agree with the explicit double sum
        g = lambda x: np.minimum(np.asarray(x, float), 1.0)
        pairs = ((smoothed_bump(0.2, 0.8, 0.1), 0.8, g), (smoothed_bump(0.4, 1.0, 0.1), 1.0, g))
        F = ExcursionFunctional(h=smoothed_cutoff(1.0, 1.0), h_constant_after=2.0, pairs=pairs)
        r_grid = np.linspace(0, 6, 120)
        val, se = target_rhs(F, n_bessel=400, dt=0.02, r_grid=r_grid, seed=7)
        assert val == pytest.approx(self._naive_two_pair_mesh(F, 400, 0.02, 7), rel=1e-10)

    def test_step_windows_match_naive_mesh(self):
        # f = 1 up to the window end: the last step of the shorter window has
        # half weight, as in empirical_lhs, although the grid runs on past it
        g = lambda x: np.minimum(np.asarray(x, float), 1.0)
        one = lambda t: np.ones_like(np.asarray(t, float))
        F = ExcursionFunctional(h=smoothed_cutoff(1.0, 1.0), h_constant_after=2.0,
                                pairs=((one, 0.5, g), (one, 1.0, g)))
        r_grid = np.linspace(0, 6, 120)
        val, se = target_rhs(F, n_bessel=400, dt=0.02, r_grid=r_grid, seed=7)
        assert val == pytest.approx(self._naive_two_pair_mesh(F, 400, 0.02, 7), rel=1e-10)

    def test_windows_with_a_gap_match_naive_mesh(self):
        # no window weighs (0.4, 0.9): rho takes one exact step across the gap
        g = lambda x: np.minimum(np.asarray(x, float), 1.0)
        pairs = ((smoothed_bump(0.1, 0.4, 0.1), 0.4, g), (smoothed_bump(0.9, 1.2, 0.1), 1.2, g))
        F = ExcursionFunctional(h=smoothed_cutoff(1.0, 1.0), h_constant_after=2.0, pairs=pairs)
        val, _ = target_rhs(F, n_bessel=400, dt=0.02, r_grid=np.linspace(0, 6, 120), seed=7)
        assert val != 0.0
        assert val == pytest.approx(self._naive_two_pair_mesh(F, 400, 0.02, 7), rel=1e-10)

    def test_draws_three_normals_per_path_at_each_weighed_step(self):
        # a Generator passed as the seed is used as it is: the steps before the
        # window, at t <= 0.5 where f = 0, draw nothing
        f = smoothed_bump(0.5, 1.5, 0.1)
        g = lambda x: np.minimum(np.asarray(x, float), 1.0)
        F = ExcursionFunctional(h=smoothed_cutoff(1.0, 1.0), h_constant_after=2.0, pairs=((f, 1.5, g),))
        n_bessel, dt = 50, 0.02
        weighed = np.count_nonzero(f(np.arange(1, 76) * dt))
        assert weighed == 49
        rng = np.random.default_rng(11)
        target_rhs(F, n_bessel, dt, np.linspace(0, 6, 120), seed=rng)
        fresh = np.random.default_rng(11)
        fresh.standard_normal(3 * n_bessel * weighed)
        assert np.array_equal(rng.standard_normal(8), fresh.standard_normal(8))

    @pytest.mark.parametrize("n", [6, 8])
    def test_gauss_legendre_table_holds_the_bits_of_leggauss(self, n):
        from numpy.polynomial.legendre import leggauss

        from measura.excursion import _GAUSS_LEGENDRE

        for table, exact in zip(_GAUSS_LEGENDRE[n], leggauss(n), strict=True):
            assert table.dtype == exact.dtype and table.tobytes() == exact.tobytes()

    def test_the_target_and_its_oracle_leave_numpy_polynomial_unloaded(self):
        import subprocess
        import sys

        from test_cli import _src_env

        code = ("import sys; import numpy as np; "
                "from measura.excursion import ExcursionFunctional, smoothed_bump, smoothed_cutoff, target_oracle, "
                "target_rhs; "
                "g = lambda x: np.minimum(np.asarray(x, float), 1.0); "
                "F = ExcursionFunctional(h=smoothed_cutoff(1.0, 1.0), h_constant_after=2.0, "
                "pairs=((smoothed_bump(0.5, 1.5, 0.1), 1.5, g),)); "
                "target_rhs(F, 20, 0.02, np.linspace(0.0, 8.0, 200), seed=1); target_oracle(F, 0.02); "
                "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
        proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_fewer_than_two_bessel_paths_rejected(self):
        g = lambda x: np.minimum(np.asarray(x, float), 1.0)
        F = ExcursionFunctional(h=smoothed_cutoff(1.0, 1.0), h_constant_after=2.0,
                                pairs=((smoothed_bump(0.2, 0.8, 0.1), 0.8, g),))
        for n in (0, 1):
            with pytest.raises(ValueError, match="n_bessel"):
                target_rhs(F, n_bessel=n, dt=0.02, r_grid=np.linspace(0, 6, 120), seed=0)

    def test_working_memory_does_not_grow_with_time_steps(self):
        # 2000 paths x 301 and x 1201 time steps: the hitting kernel's
        # (levels x nodes) table, 2.2 MB, is the largest array; nothing of
        # size (paths x times) is kept.  The bound is that of the (paths x
        # grid) buffer it replaced, and 4x the steps may add no more than one
        # block of h values: the kernel's block has _HIT_BLOCK times at any dt
        import tracemalloc

        from measura.excursion import _HIT_BLOCK, _hitting_kernel

        g = lambda x: np.minimum(np.asarray(x, float), 1.0)
        F = ExcursionFunctional(h=smoothed_cutoff(1.0, 1.0), h_constant_after=2.0,
                                pairs=((smoothed_bump(0.5, 1.5, 0.1), 1.5, g),))
        n_paths, r_grid = 2000, np.linspace(0.0, 8.0, 200)
        target_rhs(F, n_bessel=2, dt=5e-3, r_grid=r_grid, seed=1)  # leaves first-call allocations out of the peaks
        peaks = []
        for dt in (5e-3, 1.25e-3):
            tracemalloc.start()
            try:
                target_rhs(F, n_bessel=n_paths, dt=dt, r_grid=r_grid, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 2 * n_paths * r_grid.size * 8
        block = _HIT_BLOCK * _hitting_kernel(F.h, F.h_tail_value, F.h_constant_after).s.size * 8
        assert peaks[1] - peaks[0] <= block


_WINDOWED = ExcursionFunctional(h=smoothed_cutoff(1.0, 1.0), h_constant_after=2.0,
                                 pairs=((smoothed_bump(0.2, 0.8, 0.1), 0.8, lambda x: np.minimum(x, 1.0)),))
_GOOD = {"eps": 0.05, "dt": 1e-3, "horizon": 2.5}
_CALLS = {
    "empirical_lhs": lambda eps, dt, horizon: empirical_lhs(_WINDOWED, eps, 100, dt, horizon, seed=1),
    "sample_killed_bm": lambda eps, dt, horizon: sample_killed_bm(eps, dt, horizon, seed=1),
    "target_rhs": lambda eps, dt, horizon: target_rhs(_WINDOWED, 2, dt, np.linspace(0, 6, 120), seed=0),
}


class TestInputGuards:
    # each used to return a quiet (0.0, 0.0) or (nan, nan), or to end in an
    # IndexError, OverflowError or ZeroDivisionError
    @pytest.mark.parametrize("bad", [-0.01, 0.0, math.inf, math.nan])
    @pytest.mark.parametrize("name, fn", [("eps", "empirical_lhs"), ("dt", "empirical_lhs"),
                                          ("horizon", "empirical_lhs"), ("eps", "sample_killed_bm"),
                                          ("dt", "sample_killed_bm"), ("horizon", "sample_killed_bm"),
                                          ("dt", "target_rhs")])
    def test_a_bad_simulation_argument_is_named(self, name, fn, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive, got {bad}"):
            _CALLS[fn](**{**_GOOD, name: bad})

    @pytest.mark.parametrize("n_paths", [100.5, 100.0, "200"])
    def test_a_path_count_that_is_not_an_int_is_named(self, n_paths):
        # each used to end in a TypeError from range or <
        with pytest.raises(ValueError, match="n_paths must be an int, got"):
            empirical_lhs(_WINDOWED, 0.05, n_paths, 1e-3, 2.5, seed=1)

    @pytest.mark.parametrize("n_bessel", [100.5, 100.0, math.nan, "200"])
    def test_a_bessel_path_count_that_is_not_an_int_is_named(self, n_bessel):
        # the floats used to end in a TypeError from numpy, the str in one from <
        with pytest.raises(ValueError, match="n_bessel must be an int, got"):
            target_rhs(_WINDOWED, n_bessel, 1e-3, np.linspace(0, 6, 120), seed=0)

    def test_a_numpy_integer_path_count_runs_as_the_int(self):
        assert empirical_lhs(_WINDOWED, 0.05, np.int64(150), 1e-3, 2.5, seed=1) == \
            empirical_lhs(_WINDOWED, 0.05, 150, 1e-3, 2.5, seed=1)

    @pytest.mark.parametrize("r_grid", [[0.0], [-0.5, 1.0], [0.0, 2.0, 1.0], [0.0, 1.0, 1.0]],
                             ids=["one-point", "negative", "decreasing", "repeated"])
    def test_a_bad_r_grid_is_refused(self, r_grid):
        with pytest.raises(ValueError, match="r_grid must be increasing and nonnegative"):
            target_rhs(_WINDOWED, 2, 1e-3, r_grid, seed=0)

    @pytest.mark.parametrize("fn, dt, horizon", [("sample_killed_bm", 0.3, 1.0), ("empirical_lhs", 0.3, 1.0),
                                                 ("sample_killed_bm", 0.1, 1.05), ("empirical_lhs", 0.1, 1.05),
                                                 ("sample_killed_bm", 1e-3, 1e-4), ("empirical_lhs", 5e-324, 1.0)])
    def test_a_horizon_off_the_dt_grid_is_named(self, fn, dt, horizon):
        # the step count used to be rounded, which moved the horizon: 1.0 at dt 0.3 ran to 0.9
        with pytest.raises(ValueError, match=f"horizon must be a whole number of dt steps, got horizon {horizon} "
                                             f"and dt {dt}"):
            _CALLS[fn](eps=0.05, dt=dt, horizon=horizon)

    def test_a_horizon_past_the_constant_h_but_off_the_dt_grid_is_named(self):
        # this one used to raise "horizon too short", although 1.0 >= 0.95
        F = ExcursionFunctional(h=step_indicator(0.95), h_constant_after=0.95)
        with pytest.raises(ValueError, match="horizon must be a whole number of dt steps"):
            empirical_lhs(F, 1.0, 200, 0.3, 1.0, seed=1)

    def test_a_horizon_a_rounding_error_off_the_dt_grid_runs(self):
        # 0.3 / 0.1 is 2.9999999999999996: three steps
        assert sample_killed_bm(5.0, 0.1, 0.3, seed=1).grid.size == 4

    @pytest.mark.parametrize("call", [
        lambda: target_rhs(_WINDOWED, 100, 0.8, np.linspace(0, 6, 120), seed=0),
        lambda: target_oracle(_WINDOWED, 0.8),
        lambda: empirical_lhs(_WINDOWED, 0.01, 1000, 0.8, 2.4, 1),
    ], ids=["target_rhs", "target_oracle", "empirical_lhs"])
    def test_a_dt_that_misses_every_nonzero_value_of_f_is_refused(self, call):
        # the grid 0, 0.8 misses the bump on (0.2, 0.8): each used to return a quiet 0
        with pytest.raises(ValueError, match=re.escape("window 0 on [0, 0.8] weighs no step of the grid at dt 0.8")):
            call()

    @pytest.mark.parametrize("dt, eps, name", [(math.nan, 0.0, "dt"), (math.inf, 0.0, "dt"), (0.01, math.nan, "eps"),
                                               (0.01, -1.0, "eps")])
    def test_a_bad_oracle_argument_is_named(self, dt, eps, name):
        with pytest.raises(ValueError, match=f"{name} must be finite and"):
            target_oracle(_WINDOWED, dt, eps)
