import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import maxwell, norm

from measura.excursion import (
    BesselCheckReport,
    ExcursionFunctional,
    ExcursionPath,
    _BESSEL_BINS,
    _bessel_cdf,
    bessel_semigroup_check,
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
)


def const_path(level, end, dt=0.01):
    n = int(round(end / dt))
    grid = np.arange(n + 1) * dt
    return ExcursionPath(grid, np.full(n + 1, float(level)), zeta=float(grid[-1]))


class TestExcursionPath:
    def test_zero_lifetime_rejected(self):
        with pytest.raises(ValueError, match="lifetime"):
            ExcursionPath(np.array([0.0]), np.array([0.0]), zeta=0.0)

    def test_values_after_lifetime_must_vanish(self):
        grid = np.array([0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="lifetime"):
            ExcursionPath(grid, np.array([1.0, 1.0, 1.0]), zeta=0.5)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ExcursionPath(np.array([0.0, 0.1]), np.array([1.0, -0.2]), zeta=0.1)


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
            copy = ExcursionPath(a.grid.copy(), a.values.copy(), zeta=a.zeta)
            for e1, e2 in ((a, b), (b, a), (a, a), (a, copy)):
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

    def test_reproducible_and_partition_independent(self):
        F = ExcursionFunctional(h=step_indicator(0.1), h_constant_after=0.1)
        a = empirical_lhs(F, 0.05, 400, 1e-3, 0.5, seed=9)
        b = empirical_lhs(F, 0.05, 400, 1e-3, 0.5, seed=9)
        assert a == b

    def test_minimum_path_count_enforced(self):
        F = ExcursionFunctional(h=step_indicator(0.1), h_constant_after=0.1)
        with pytest.raises(ValueError, match="100"):
            empirical_lhs(F, 0.05, 50, 1e-3, 0.5, seed=9)

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


def replay_block(seed, block, n, eps, dt, max_steps):
    """The paths of one lockstep block, materialised from the block's draws.

    Redraws the block's stream chunk by chunk and applies the kill rule path
    by path and step by step.
    """
    from measura.excursion import _BLOCK, _CELL_CAP, _FIRST_CHUNK

    assert n <= _BLOCK
    rng = np.random.default_rng((seed, block))
    sqdt = math.sqrt(dt)
    pieces = [[np.array([eps])] for _ in range(n)]
    zeta = [math.inf] * n
    x = [eps] * n
    alive, done, size = list(range(n)), 0, _FIRST_CHUNK
    while alive and done < max_steps:
        steps = min(size, max_steps - done, max(1, _CELL_CAP // len(alive)))
        z = rng.standard_normal((len(alive), steps))
        u = rng.random((len(alive), steps))
        survivors = []
        for r, i in enumerate(alive):
            row = x[i] + np.cumsum(z[r]) * sqdt
            for k in range(steps):
                before = row[k - 1] if k else x[i]
                if row[k] <= 0.0 or u[r, k] < np.exp(min(0.0, -2.0 * before * row[k] / dt)):
                    pieces[i].append(np.append(row[:k], 0.0))
                    zeta[i] = (done + k + 1) * dt
                    break
            else:
                pieces[i].append(row)
                x[i] = row[-1]
                survivors.append(i)
        alive, done, size = survivors, done + steps, 2 * size
    paths = []
    for i in range(n):
        values = np.concatenate(pieces[i])
        paths.append(ExcursionPath(np.arange(values.size) * dt, values, zeta[i]))
    return paths


class TestLockstepSimulator:
    @pytest.mark.parametrize("eps", [0.3, 1.0])
    def test_single_path_is_the_replayed_block_row(self, eps):
        # sample_killed_bm and the lockstep blocks share one stepper: with the
        # stream (s, 0) its path is row 0 of block 0 of a one-path run
        seed, dt, horizon = 606, 1e-3, 1.0
        max_steps = int(round(horizon / dt))
        p = sample_killed_bm(eps, dt, horizon, seed=(seed, 0))
        q = replay_block(seed, 0, 1, eps, dt, max_steps)[0]
        assert np.array_equal(p.values, q.values) and np.array_equal(p.grid, q.grid)
        assert p.zeta == q.zeta and p.censored == q.censored
        assert p.censored == (eps == 1.0)

    def test_pathwise_match_with_single_path_oracle(self):
        from measura.excursion import _lockstep_block, _window_weights

        eps, dt, horizon, n, seed = 0.3, 1e-3, 1.0, 200, 4242
        max_steps = int(round(horizon / dt))
        g = lambda x: np.minimum(np.asarray(x, float), 1.0)
        h = lambda r: 1.0 - 0.5 * step_indicator(0.2, width=0.4)(r)  # 0.5 after 0.6
        F = ExcursionFunctional(h=h, h_constant_after=0.6, pairs=((smoothed_bump(0.05, 0.5, 0.05), 0.5, g),))

        zeta, values = _lockstep_block(F, _window_weights(F, dt, max_steps), eps, dt, max_steps,
                                       np.random.default_rng((seed, 0)), n)
        paths = replay_block(seed, 0, n, eps, dt, max_steps)
        assert zeta.tolist() == [p.zeta for p in paths]
        oracle = np.array([eval_functional(F, p) for p in paths])
        np.testing.assert_allclose(values, oracle, rtol=1e-12, atol=0.0)
        assert np.count_nonzero(oracle) >= 20
        assert 0 < sum(p.censored for p in paths) < n

        mean, se = empirical_lhs(F, eps, n, dt, horizon, seed)
        assert mean == pytest.approx(oracle.mean() / eps, rel=1e-12)
        assert se == pytest.approx(oracle.std(ddof=1) / eps / math.sqrt(n), rel=1e-10)

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


class TestTargetRhs:
    def test_levy_density_normalizes(self):
        for alpha in (0.2, 1.0, 3.7):
            val, _ = quad(lambda r: float(levy_hitting_density(alpha, r)), 0.0, np.inf, limit=200)
            assert val == pytest.approx(1.0, abs=1e-3)

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
        # criterion 09's target, paths, step and seed: the Monte Carlo mean
        # lies within 3 of its own standard errors of its deterministic value
        g = lambda x: np.minimum(np.asarray(x, float), 1.0)
        F = ExcursionFunctional(h=smoothed_cutoff(1.0, 1.0), h_constant_after=2.0,
                                pairs=((smoothed_bump(0.5, 1.5, 0.1), 1.5, g),))
        val, se = target_rhs(F, n_bessel=30_000, dt=5e-3, r_grid=np.linspace(0.0, 8.0, 200), seed=910)
        oracle = target_oracle(F, dt=5e-3)
        assert abs(val - oracle) <= 3.0 * se
        # the killed-Brownian value at eps > 0 tends to the Bessel limit
        assert abs(target_oracle(F, dt=5e-3, eps=1e-3) - oracle) <= 1e-6

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
        target_rhs: the norm of a 3-d Brownian motion from 0 stepped along the
        time grid.
        """
        from measura.excursion import _hitting_kernel

        t_max = max(t_end for _, t_end, _ in F.pairs)
        rng = np.random.default_rng(seed)
        times = np.arange(int(math.ceil(t_max / dt)) + 1) * dt
        pos = np.zeros((n_bessel, 3))
        rho = np.zeros((n_bessel, times.size))
        for j in range(1, times.size):
            pos += rng.standard_normal((n_bessel, 3)) * math.sqrt(times[j] - times[j - 1])
            rho[:, j] = np.linalg.norm(pos, axis=1)
        hit = _hitting_kernel(F.h, F.h_tail_value, F.h_constant_after)
        hv = np.column_stack([hit(t, a) for t, a in zip(times, rho.T)])
        q = np.where(rho > 0, hv / np.where(rho > 0, rho, 1.0), 0.0)
        a = []
        for f, t_end, g in F.pairs:
            inside = times <= t_end + 1e-12
            w = np.where(inside, dt, 0.0)
            w[0] = w[np.flatnonzero(inside)[-1]] = 0.5 * dt
            a.append(w * np.where(inside, f(times), 0.0) * g(rho))
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

    def test_fewer_than_two_bessel_paths_rejected(self):
        g = lambda x: np.minimum(np.asarray(x, float), 1.0)
        F = ExcursionFunctional(h=smoothed_cutoff(1.0, 1.0), h_constant_after=2.0,
                                pairs=((smoothed_bump(0.2, 0.8, 0.1), 0.8, g),))
        for n in (0, 1):
            with pytest.raises(ValueError, match="n_bessel"):
                target_rhs(F, n_bessel=n, dt=0.02, r_grid=np.linspace(0, 6, 120), seed=0)

    def test_working_memory_does_not_grow_with_time_steps(self):
        # 2000 paths x 301 time steps: the hitting kernel's (levels x nodes)
        # table, 2.2 MB, is the largest array; nothing of size (paths x times)
        # is kept.  The bound is that of the (paths x grid) buffer it replaced
        import tracemalloc

        g = lambda x: np.minimum(np.asarray(x, float), 1.0)
        F = ExcursionFunctional(h=smoothed_cutoff(1.0, 1.0), h_constant_after=2.0,
                                pairs=((smoothed_bump(0.5, 1.5, 0.1), 1.5, g),))
        n_paths, r_grid = 2000, np.linspace(0.0, 8.0, 200)
        tracemalloc.start()
        try:
            target_rhs(F, n_bessel=n_paths, dt=5e-3, r_grid=r_grid, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n_paths * r_grid.size * 8


def scipy_bin_probs(edges, t, x):
    """Bessel bin masses through scipy.stats: the Maxwell law from 0, the h-transform from x > 0."""
    if x == 0.0:
        return np.diff(maxwell.cdf(edges, scale=math.sqrt(t)))
    s = math.sqrt(t)

    def piece(a, b, shift):
        # ∫_a^b y phi_t(y + shift) dy = t (phi(a+shift) - phi(b+shift)) - shift (Phi(b+shift)-Phi(a+shift))
        return t * (norm.pdf(a + shift, scale=s) - norm.pdf(b + shift, scale=s)) - shift * (
            norm.cdf(b + shift, scale=s) - norm.cdf(a + shift, scale=s)
        )

    a, b = edges[:-1], edges[1:]
    return (piece(a, b, -x) - piece(a, b, +x)) / x


class TestBesselSemigroup:
    def test_entrance_density_normalizes(self):
        edges = np.linspace(0.0, 12.0, 400)
        assert _bessel_cdf(0.0, 1.0, 0.0) == 0.0
        assert np.diff(_bessel_cdf(edges, 1.0, 0.0)).sum() == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("t, x", [(1.0, 0.0), (0.7, 1.3), (25.0, 1.0), (0.01, 0.0), (0.01, 3.0), (5.0, 0.0),
                                      (2.0, 1e-3)])
    def test_bin_masses_match_scipy_laws(self, t, x):
        # at (2, 1e-3) both forms cancel in their 1/x term
        edges = np.linspace(0.0, x + 4.5 * math.sqrt(t), 25)
        np.testing.assert_allclose(np.diff(_bessel_cdf(edges, t, x)), scipy_bin_probs(edges, t, x),
                                   rtol=0.0, atol=1e-12)

    def test_entrance_density_mode(self):
        # mode of 2 kappa(1) y^2 exp(-y^2/2) is at sqrt(2)
        ys = np.linspace(0.01, 4.0, 2000)
        dens = 2.0 * kappa(1.0) * ys**2 * np.exp(-(ys**2) / 2.0)
        assert ys[np.argmax(dens)] == pytest.approx(math.sqrt(2.0), abs=2e-3)

    def test_entrance_histogram(self):
        report = bessel_semigroup_check(1.0, 0.0, n_samples=200_000, seed=15)
        assert isinstance(report, BesselCheckReport)
        assert report.ok

    def test_started_above_zero(self):
        report = bessel_semigroup_check(0.7, 1.3, n_samples=150_000, seed=16)
        edges = np.linspace(0.0, 1.3 + 4.5 * math.sqrt(0.7), _BESSEL_BINS + 1)  # the check's own bins
        assert np.diff(_bessel_cdf(edges, 0.7, 1.3)).sum() == pytest.approx(1.0, abs=1e-3)
        assert report.ok

    def test_large_time_spread(self):
        report = bessel_semigroup_check(25.0, 1.0, n_samples=100_000, seed=17)
        assert report.ok
