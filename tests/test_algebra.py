import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from measura import algebra
from measura.algebra import (
    FunctionFamily,
    TestFunction,
    _bernstein_eval,
    _bernstein_weights,
    check_bounded_below_on,
    check_separates_points,
    check_vanishes_nowhere,
    stone_weierstrass_p0,
)
from measura.metric_core import BoundedSetWitness, real_line

SPACE = real_line()


class TestCheckers:
    def test_identity_separates(self):
        fam = FunctionFamily((TestFunction("id", lambda x: x),), SPACE)
        assert check_separates_points(fam, [(0.0, 1.0)], tol=1e-9)

    def test_square_fails_at_sign_pair(self):
        fam = FunctionFamily((TestFunction("sq", lambda x: x * x),), SPACE)
        assert not check_separates_points(fam, [(-1.0, 1.0)], tol=1e-9)

    def test_power_sums_separate_fragmentations(self):
        # brute force over embedded length-3 states: power sums distinguish multisets
        from measura.fragmentation import FragmentationSequence, g_p

        rng = np.random.default_rng(4)
        states = []
        for _ in range(40):
            v = np.sort(rng.uniform(0.05, 0.33, 3))[::-1]
            states.append(FragmentationSequence(tuple(v)))
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                gaps = [abs(g_p(states[i], p) - g_p(states[j], p)) for p in (1, 2, 3)]
                assert max(gaps) > 1e-12

    def test_vanishes_nowhere_on_half_open_interval(self):
        fam = FunctionFamily((TestFunction("cap", lambda x: min(1.0, x)),), SPACE)
        assert check_vanishes_nowhere(fam, [0.1, 0.5, 1.0], tol=1e-12)

    def test_plane_waves_vanish_nowhere_off_lattice(self):
        from measura.levy import f_u, levy_ground_space

        fam = FunctionFamily(
            tuple(f_u([u]) for u in (0.7, 1.3, 2.9)), levy_ground_space(1)
        )
        sample = [x for x in np.linspace(-5, 5, 41) if abs(x) > 1e-6]
        assert check_vanishes_nowhere(fam, sample, tol=1e-6)

    def test_zero_at_sample_point_detected(self):
        fam = FunctionFamily((TestFunction("shift", lambda x: x - 1.0),), SPACE)
        assert not check_vanishes_nowhere(fam, [1.0], tol=1e-12)

    def test_bounded_below_constant_one(self):
        fam = FunctionFamily((TestFunction("one", lambda x: 1.0),), SPACE)
        ok, member, delta = check_bounded_below_on(
            fam, BoundedSetWitness(5.0, 0.0), [0.5, 1.0, 2.0]
        )
        assert ok and member == "one" and delta == pytest.approx(1.0)

    def test_bounded_below_step4_bound(self):
        # A = [0.5, 2], eps = 0.5, u* = eps*pi/2: sampled min of |F_{u*}|^2
        # meets the closed-form floor (1 - cos(pi eps^2 / 2))^2 ~ 5.80e-3
        from measura.levy import f_u, levy_ground_space

        eps = 0.5
        ustar = eps * math.pi / 2.0
        fu = f_u([ustar])
        sq = TestFunction("absFu^2", lambda x: abs(fu(x)) ** 2)
        space = levy_ground_space(1)
        fam = FunctionFamily((sq,), space)
        witness = BoundedSetWitness(space.dist(space.reference_point, 2.0) + 1e-9, space.reference_point)
        sample = list(np.linspace(0.5, 2.0, 200))
        ok, member, delta = check_bounded_below_on(fam, witness, sample)
        floor = (1.0 - math.cos(math.pi * eps**2 / 2.0)) ** 2
        assert ok
        assert floor == pytest.approx(5.80e-3, rel=2e-3)
        assert delta >= floor - 1e-12

    def test_vanishing_member_reports_false(self):
        fam = FunctionFamily((TestFunction("zero", lambda x: 0.0),), SPACE)
        ok, _, delta = check_bounded_below_on(fam, BoundedSetWitness(3.0, 0.0), [1.0, 2.0])
        assert not ok and delta == 0.0

    def test_sample_outside_witness_rejected(self):
        # a family without members is refused too, not reported as unbounded below
        for fam in (FunctionFamily((TestFunction("one", lambda x: 1.0),), SPACE), FunctionFamily((), SPACE)):
            with pytest.raises(ValueError, match="sample point outside the bounded-set witness"):
                check_bounded_below_on(fam, BoundedSetWitness(1.0, 0.0), [5.0])

    def test_empty_sample_rejected(self):
        fam = FunctionFamily((TestFunction("one", lambda x: 1.0),), SPACE)
        with pytest.raises(ValueError, match="sample is empty"):
            check_bounded_below_on(fam, BoundedSetWitness(1.0, 0.0), [])

    def test_family_without_members_finds_no_bound(self):
        found = check_bounded_below_on(FunctionFamily((), SPACE), BoundedSetWitness(1.0, 0.0), [0.5])
        assert found == (False, None, 0.0)


def ramp(u):
    return min(max(u, 0.0), 1.0)


def smooth_step_2d(x):
    # arity-2 target: a C^1 step in x_1 from 0.25 to 0.75, modulated in x_2
    u = ramp((x[0] - 0.25) / 0.5)
    return x[0] * u * u * (3.0 - 2.0 * u) * (0.5 + 0.5 * x[1] * x[1])


class TestStoneWeierstrass:
    def test_first_coordinate_is_exact(self):
        poly = stone_weierstrass_p0(lambda x: x[0], delta=0.0, eps=0.01, degree_budget=4)
        assert poly.terms == {(1,): Fraction(1)}
        assert poly.in_p0()
        for x in np.linspace(0, 1, 11):
            assert poly.evaluate((x,)) == pytest.approx(x, abs=1e-14)

    def test_bilinear_is_exact_at_degree_one(self):
        poly = stone_weierstrass_p0(
            lambda x: x[0] * x[1], delta=0.0, eps=0.01, degree_budget=8, arity=2
        )
        assert poly.in_p0()
        assert poly.terms == {(1, 1): Fraction(1)}
        for x1 in (0.0, 0.3, 1.0):
            for x2 in (0.0, 0.8):
                assert poly.evaluate((x1, x2)) == pytest.approx(x1 * x2, abs=1e-12)

    def test_ramp_meets_weighted_bound(self):
        g = lambda x: x[0] * ramp((x[0] - 0.25) / 0.25)
        poly = stone_weierstrass_p0(g, delta=0.25, eps=0.05, degree_budget=512)
        assert poly.in_p0()
        grid = np.linspace(0, 1, 50)
        for x in grid:
            assert abs(g((x,)) - poly.evaluate((x,))) <= 0.05 * x + 1e-12

    def test_budget_exhausted_raises(self):
        g = lambda x: x[0] * ramp((x[0] - 0.25) / 0.25)
        with pytest.raises(RuntimeError, match="budget exhausted"):
            stone_weierstrass_p0(g, delta=0.25, eps=0.001, degree_budget=16)

    def test_support_assertion_enforced(self):
        with pytest.raises(ValueError, match="support assertion"):
            stone_weierstrass_p0(lambda x: x[0], delta=0.5, eps=0.1, degree_budget=8)

    @pytest.mark.parametrize("g, eps, budget, message", [
        (lambda x: x[0], 0.0, 8, "eps must be finite and positive, got 0.0"),
        (lambda x: x[0], -0.1, 8, "eps must be finite and positive, got -0.1"),
        (lambda x: x[0], math.nan, 8, "eps must be finite and positive, got nan"),
        (lambda x: x[0], math.inf, 8, "eps must be finite and positive, got inf"),
        (lambda x: x[0], 0.1, 0, "degree_budget must be at least 1, got 0"),
        (lambda x: x[0], 0.1, math.nan, "degree_budget must be an int, got nan"),
        (lambda x: x[0], 0.1, 8.0, "degree_budget must be an int, got 8.0"),
        (lambda x: 2.0 * x[0], 0.1, 8, r"g must take values in \[0, 1\]"),
        (lambda x: -x[0], 0.1, 8, r"g must take values in \[0, 1\]"),
        (lambda x: math.nan if x[0] > 0.5 else 0.0, 0.05, 64, r"g must take values in \[0, 1\]"),
    ], ids=["eps-zero", "eps-negative", "eps-nan", "eps-inf", "budget-zero", "budget-nan", "budget-float",
            "g-above-1", "g-below-0", "g-nan"])
    def test_bad_argument_rejected(self, g, eps, budget, message):
        with pytest.raises(ValueError, match=message):
            stone_weierstrass_p0(g, delta=0.0, eps=eps, degree_budget=budget)

    def test_terms_match_stable_evaluator_at_low_degree(self):
        g = lambda x: x[0] * ramp((x[0] - 0.25) / 0.25)
        poly = stone_weierstrass_p0(g, delta=0.25, eps=0.2, degree_budget=32)
        for x in np.linspace(0, 1, 17):
            exact = float(poly.evaluate_exact((x,)))
            horner = sum(float(c) * x ** m[0] for m, c in poly.terms.items())
            assert poly.evaluate((x,)) == pytest.approx(exact, abs=1e-10)
            assert horner == pytest.approx(exact, abs=1e-9)

    def test_exact_evaluation_agrees_at_high_degree(self):
        # the rational power-basis terms and the factored Bernstein form are
        # the same polynomial even where float Horner would be unusable
        g = lambda x: x[0] * ramp((x[0] - 0.25) / 0.25)
        poly = stone_weierstrass_p0(g, delta=0.25, eps=0.05, degree_budget=512)
        assert poly.degree >= 128
        for x in (Fraction(1, 3), Fraction(7, 10), Fraction(49, 50)):
            assert float(poly.evaluate_exact((x,))) == pytest.approx(
                poly.evaluate((float(x),)), abs=1e-9
            )
        poly2 = stone_weierstrass_p0(smooth_step_2d, delta=0.25, eps=0.05, degree_budget=256, arity=2)
        assert poly2.degree >= 16
        for x in ((Fraction(1, 3), Fraction(2, 7)), (Fraction(7, 10), Fraction(1)), (Fraction(49, 50), 0)):
            assert float(poly2.evaluate_exact(x)) == pytest.approx(
                poly2.evaluate(tuple(float(xi) for xi in x)), abs=1e-9
            )

    def test_product_grid_matches_pointwise_evaluation(self):
        poly = stone_weierstrass_p0(smooth_step_2d, delta=0.25, eps=0.05, degree_budget=256, arity=2)
        axis = np.linspace(0.0, 1.0, 13)  # both faces of both axes included
        grid = _bernstein_eval(poly.bernstein_values, poly.degree, [axis, axis])
        assert grid.shape == (13, 13)
        for i, x1 in enumerate(axis):
            for j, x2 in enumerate(axis):
                assert abs(x1 * grid[i, j] - poly.evaluate((x1, x2))) <= 1e-15

    def test_weights_are_built_once_per_abscissa_and_degree(self, monkeypatch):
        # the verification grid is contracted axis by axis: a per-point loop
        # would call the weight function arity * grid_points**arity times
        calls = []
        weights = algebra._bernstein_weights

        def counted(n, x):
            calls.append(n)
            return weights(n, x)

        monkeypatch.setattr(algebra, "_bernstein_weights", counted)
        poly = stone_weierstrass_p0(
            smooth_step_2d, delta=0.25, eps=0.05, degree_budget=256, arity=2, grid_points=25
        )
        tried = poly.degree.bit_length()  # degrees 1, 2, 4, ..., poly.degree
        assert len(set(calls)) == tried
        assert len(calls) <= 2 * 25 * tried

    def test_the_measure_space_call_builds_each_weight_vector_once(self):
        # 25 abscissae at each of the degrees 1, 2, 4, ..., 32: the second axis of
        # the grid and evaluate at the grid points are served from the cache
        _bernstein_weights.cache_clear()
        poly = stone_weierstrass_p0(
            smooth_step_2d, delta=0.25, eps=0.05, degree_budget=256, arity=2, grid_points=25
        )
        assert poly.degree == 32
        axis = np.linspace(0.0, 1.0, 25)
        for x1 in axis:
            for x2 in axis:
                poly.evaluate((x1, x2))
        assert _bernstein_weights.cache_info().misses == 25 * 6 == 150

    def test_g_is_called_once_per_lattice_point_across_the_degrees(self):
        # the grid, then the degree-32 lattice, which holds the lattices of 1, 2, ..., 16
        calls = []

        def counted(x):
            calls.append(x)
            return smooth_step_2d(x)

        poly = stone_weierstrass_p0(counted, delta=0.25, eps=0.05, degree_budget=256, arity=2, grid_points=25)
        assert poly.degree == 32
        assert len(calls) == 25**2 + 33**2

    @pytest.mark.parametrize("degrees", [(1, 2, 4, 8, 16, 32), (1, 2, 4, 8, 16, 24)], ids=["doubling", "budget-24"])
    def test_shared_lattice_values_equal_fresh_ones(self, degrees):
        known = {}
        for n in degrees:
            shared = algebra._scaled_ratio_lattice(smooth_step_2d, n, 2, known)
        fresh = algebra._scaled_ratio_lattice(smooth_step_2d, degrees[-1], 2, {})
        assert shared.shape == fresh.shape and all(a == b for a, b in zip(shared.flat, fresh.flat))

    def test_cached_weights_give_the_bits_of_fresh_ones(self, monkeypatch):
        poly = stone_weierstrass_p0(
            smooth_step_2d, delta=0.25, eps=0.05, degree_budget=256, arity=2, grid_points=25
        )
        points = np.random.default_rng(42).uniform(0.0, 1.0, (200, 2))
        first = [poly.evaluate(x).hex() for x in points]
        again = [poly.evaluate(x).hex() for x in points]  # every vector from the cache
        monkeypatch.setattr(algebra, "_bernstein_weights", _bernstein_weights.__wrapped__)
        fresh = [poly.evaluate(x).hex() for x in points]
        assert first == again == fresh
        rebuilt = stone_weierstrass_p0(
            smooth_step_2d, delta=0.25, eps=0.05, degree_budget=256, arity=2, grid_points=25
        )
        assert rebuilt.terms == poly.terms
        assert rebuilt.bernstein_values.tobytes() == poly.bernstein_values.tobytes()

    @pytest.mark.parametrize("eps, budget", [(0.1, 64), (0.05, 512)])  # the second is criterion 05's case
    def test_p0_face_value_is_zero(self, eps, budget):
        g = lambda x: x[0] * ramp((x[0] - 0.25) / 0.25)
        poly = stone_weierstrass_p0(g, delta=0.25, eps=eps, degree_budget=budget)
        assert poly.evaluate((0.0,)) == 0.0
        assert poly.evaluate_exact((0,)) == 0

    @pytest.mark.parametrize("kwargs, message", [
        ({"delta": math.nan}, "delta must be finite and nonnegative, got nan"),
        ({"delta": -1.0}, "delta must be finite and nonnegative, got -1.0"),
        ({"delta": math.inf}, "delta must be finite and nonnegative, got inf"),
        ({"grid_points": 1}, "grid_points must be at least 2, got 1"),
        ({"grid_points": 0}, "grid_points must be at least 2, got 0"),
        ({"arity": 0}, "arity must be at least 1, got 0"),
    ], ids=["delta-nan", "delta-negative", "delta-inf", "grid-one-point", "grid-empty", "arity-zero"])
    def test_argument_that_would_skip_a_check_rejected(self, kwargs, message):
        # with these the support check or the verification grid checks nothing, or numpy fails
        args = {"delta": 0.25, "eps": 0.1, "degree_budget": 8} | kwargs
        with pytest.raises(ValueError, match=message):
            stone_weierstrass_p0(lambda x: 1.0, **args)

    def test_support_check_covers_the_face_at_delta_zero(self):
        with pytest.raises(ValueError, match="support assertion"):
            stone_weierstrass_p0(lambda x: 1.0, delta=0.0, eps=0.1, degree_budget=8)

    @pytest.mark.parametrize("x, message", [
        ((1.5, 0.5), r"x\[0\] = 1.5 lies outside the cube"),
        ((-0.5, 0.5), r"x\[0\] = -0.5 lies outside the cube"),
        ((0.5, math.nan), r"x\[1\] = nan lies outside the cube"),
        ((math.inf, 0.5), r"x\[0\] = inf lies outside the cube"),
        ((0.5, 0.5, 2.0), r"x\[2\] = 2.0 lies outside the cube"),
    ], ids=["above-1", "below-0", "nan", "inf", "unused-coordinate"])
    def test_evaluate_refuses_points_outside_the_cube(self, x, message):
        poly = stone_weierstrass_p0(smooth_step_2d, delta=0.25, eps=0.05, degree_budget=32, arity=2)
        with pytest.raises(ValueError, match=message):
            poly.evaluate(x)

    def test_evaluate_accepts_the_faces(self):
        poly = stone_weierstrass_p0(smooth_step_2d, delta=0.25, eps=0.05, degree_budget=32, arity=2)
        for x in ((0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (1.0,)):
            assert poly.evaluate(x) == pytest.approx(float(poly.evaluate_exact(x)), abs=1e-12)

    def test_syntactic_p0_check_catches_constant_terms(self):
        base = stone_weierstrass_p0(lambda x: x[0] * ramp((x[0] - 0.25) / 0.25), delta=0.25, eps=0.1,
                                    degree_budget=64)
        assert base.in_p0()
        poly = dataclasses.replace(base, terms={(0,): Fraction(1), (1,): Fraction(2)})
        assert not poly.in_p0()


def exact_bernstein_weights(n, x):
    """C(n, j) x^j (1 - x)^(n - j) in integer arithmetic, rounded once to float."""
    p, q = Fraction(x).as_integer_ratio()
    up, down = [1], [1]
    for _ in range(n):
        up.append(up[-1] * p)
        down.append(down[-1] * (q - p))
    den = q**n
    return np.array([math.comb(n, j) * up[j] * down[n - j] / den for j in range(n + 1)])


def cumprod_bernstein_weights(n, x):
    """The weights as built by np.cumprod, the reference for the scalar recurrence."""
    if x <= 0.0 or x >= 1.0:
        w = np.zeros(n + 1)
        w[0 if x <= 0.0 else n] = 1.0
        return w
    m = min(int((n + 1) * x), n)
    r = x / (1.0 - x)
    w = np.empty(n + 1)
    w[m] = 1.0
    up = np.arange(m, n)
    w[m + 1 :] = np.cumprod((n - up) / (up + 1.0) * r)
    down = np.arange(m - 1, -1, -1)
    w[:m] = np.cumprod((down + 1.0) / ((n - down) * r))[::-1]
    return w / w.sum()


class TestBernsteinWeights:
    def test_matches_exact_rational_weights(self):
        for n in (1, 7, 64, 256, 1000):
            for x in (0.0, 1e-3, 0.1, 0.37, 0.5, 0.9, 0.999, 1.0):
                w, exact = _bernstein_weights(n, x), exact_bernstein_weights(n, x)
                if x in (0.0, 1.0):  # all the mass on e_0 or e_n, exactly
                    assert np.array_equal(w, exact), (n, x)
                err = np.abs(w - exact).max()
                assert err <= 1e-15, (n, x, err)

    @pytest.mark.parametrize("x", [0.0, 0.3, 1.0])
    def test_a_returned_vector_is_read_only(self, x):
        w = _bernstein_weights(8, x)
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 0.5
        assert _bernstein_weights(8, x) is w

    def test_high_degree_is_finite_and_normalised(self):
        for x in (1e-3, 0.37, 0.999):
            w = _bernstein_weights(5000, x)
            assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_scalar_recurrence_equals_the_cumprod_weights_bitwise(self):
        rng = np.random.default_rng(37)
        for n in (1, 2, 7, 32, 64, 256, 1000):
            for x in [*rng.uniform(0.0, 1.0, 25).tolist(), 0.0, 1.0, 1e-9, 1.0 - 1e-9]:
                assert np.array_equal(_bernstein_weights(n, x), cumprod_bernstein_weights(n, x)), (n, x)
