"""Killed Brownian motion, excursion paths, and the excursion-measure target.

The simulation uses exact Gaussian increments with a per-step Brownian-bridge
crossing correction, so the law of the recorded absorption time matches the
true first hitting time up to grid quantization (naive first-nonpositive-step
absorption would bias lifetimes upward by O(sqrt(dt))).

Path functionals are products of time-window integrals F_{f,g}(e) =
∫ f(t) g(e(t)) dt and a lifetime weight h(zeta).  Their scaled expectations
under killed Brownian motion started at eps are compared against the target
computed from the 3-dimensional Bessel representation: for lifetime weight h
and at least one window pair (f_i, g_i),

    target = ∫ f(t) ∫_0^inf h(tbar + r) E_0[ g(rho_t)/rho_tbar * l^{rho_tbar}(r) ] dr dt,

with rho a 3-d Bessel process from 0 (simulated exactly as the norm of a
3-d Brownian motion) and l^a the first-hitting-time density of level 0 from
level a, l^a(r) = a (2 pi r^3)^(-1/2) exp(-a^2 / (2r)), integrated over all r
by ``_hitting_kernel``; ``target_oracle`` gives a one-pair target without
Monte Carlo.  The marginal laws of rho have the closed-form distribution
function ``_bessel_cdf``, which ``bessel_semigroup_check`` tests against
exact samples.  Everything here runs on numpy and the math module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .metric_core import _require_finite, _require_int, _require_real, _sorted_distinct

TWO_PI = 2.0 * math.pi
# numpy has no erf: math.erf, applied elementwise, serves _bessel_cdf
_erf = np.frompyfunc(math.erf, 1, 1)


def _whole_steps(horizon: float, dt: float) -> int:
    """horizon / dt as an int, else ValueError naming both: the dt-grid must end at the horizon."""
    steps = horizon / dt
    if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9 * steps):
        raise ValueError(f"horizon must be a whole number of dt steps, got horizon {horizon} and dt {dt}")
    return round(steps)


def kappa(r):
    """(2 pi r^3)^(-1/2), the excursion-length intensity."""
    r = np.asarray(r, dtype=float)
    return (TWO_PI * r**3) ** (-0.5)


def levy_hitting_density(alpha, r):
    """Density of the first time Brownian motion from alpha > 0 hits 0.

    l^alpha(r) = alpha (2 pi r^3)^(-1/2) exp(-alpha^2/(2r)); broadcasts over
    both arguments, returns 0 at r <= 0 and allocates no broadcast-shape
    array but its result, so ``_hitting_kernel`` builds its table with it.
    """
    alpha = np.asarray(alpha, dtype=float)
    r = np.asarray(r, dtype=float)
    safe = np.where(r > 0.0, r, 1.0)
    val = np.asarray(alpha * alpha * (-0.5 / safe))
    np.exp(val, out=val)
    val *= alpha
    val *= np.where(r > 0.0, kappa(safe), 0.0)
    return val


@dataclass(frozen=True)
class ExcursionPath:
    """Nonnegative path on a grid with an explicit lifetime.

    The grid starts at 0 and is finite and strictly increasing, as
    ``excursion_metric``'s merged grid and ``np.interp`` need.

    ``zeta`` is the first grid time the path is absorbed at 0; censored paths
    (not absorbed before the horizon) carry ``zeta = inf``, and that is what
    ``censored`` reads.  A ``zeta`` that is not a real number (a str, a
    bool) is refused by name.  Values at grid times beyond the lifetime are
    zero, and the path is extended by zero past its grid.
    """

    grid: np.ndarray
    values: np.ndarray
    zeta: float

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.shape != values.shape or grid.ndim != 1 or grid.size == 0:
            raise ValueError("grid and values must be matching 1-d arrays")
        if grid[0] != 0.0:
            raise ValueError("grid must start at 0")
        if not (np.all(grid[1:] > grid[:-1]) and math.isfinite(grid[-1])):
            raise ValueError("grid must be finite and strictly increasing")
        if not np.all((values >= 0.0) & (values < math.inf)):
            raise ValueError("path values must be finite and nonnegative")
        _require_real("zeta", self.zeta)
        if not self.zeta > 0.0:
            raise ValueError("lifetime must be positive: the zero path is excluded")
        if np.any(values[grid > self.zeta] != 0.0):
            raise ValueError("values beyond the lifetime must be zero")

    @property
    def censored(self) -> bool:
        return math.isinf(self.zeta)

    @property
    def end(self) -> float:
        return float(self.grid[-1])


def _segment_means(x: np.ndarray, n: int) -> np.ndarray:
    """Mean of min(|d|, 1) over each of n linear pieces of a difference d.

    ``x`` holds the n right-end values of d, then the n left-end ones; it is
    overwritten.  A piece with end values x0, x1 has mean
    (F(x1) - F(x0)) / (x1 - x0), or min(|x0|, 1) when x0 == x1, where
    F(x) = ∫_0^x min(|s|, 1) ds is computed as |c| (x - c/2) with c = x
    clipped to [-1, 1].  That equals sign(x) x²/2 for |x| <= 1 and
    sign(x) (|x| - 1/2) beyond bit for bit (x - x/2 is exact, and halving
    commutes with rounding unless x²/2 is subnormal), and negating both ends
    leaves the quotient's bits unchanged, so the ends need no ordering.
    """
    c = np.minimum(np.maximum(x, -1.0), 1.0)
    ac = np.abs(c)
    c *= -0.5
    c += x
    c *= ac  # F at every end
    span = np.subtract(x[:n], x[n:], out=x[:n])
    mean = ac[n:]  # min(|x0|, 1), kept on flat pieces
    np.divide(np.subtract(c[:n], c[n:], out=c[:n]), span, out=mean, where=span != 0.0)
    return mean


def excursion_metric(e1: ExcursionPath, e2: ExcursionPath) -> float:
    """(∫ |e1 - e2| ∧ 1 dt) ∧ 1 + |1/zeta_1 - 1/zeta_2|, as its batched form on one pair.

    The integral is exact for the piecewise-linear representation: on each
    linear piece of the merged grid, min(|e1 - e2|, 1) is integrated in closed
    form (``_segment_means``), kinks at the crossings of the difference
    through 0 and +-1 included, so the grid is never refined.  Plain
    trapezoid on the merged grid can violate the triangle inequality by
    O(dt); the exact value cannot.  ``excursion_metric.many``, the batched
    form ``metric_core.distances`` uses, is the one implementation.
    """
    return float(_excursion_metric_many((e1, e2), np.array([0]), np.array([1]))[0])


# excursion_metric.many takes at most _CHUNK_CELLS // |tau| pairs at a time,
# tau being the union grid of the paths it is given.
_CHUNK_CELLS = 8192


def _excursion_metric_many(points: Sequence[ExcursionPath], i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``excursion_metric(points[i[k]], points[j[k]])`` for every k.

    Each path is read once on the union grid tau of all the paths' grids:
    ``on`` marks its grid points, ``right`` is np.interp(tau, grid, values,
    right=0.0), its value at a segment's right end, and ``left`` its value at
    a left end, 0 from its grid end on: a path is 0 on the open ray past its
    grid (the grid-end rule).  A pair's merged grid is the tau points on
    either grid.  The pairs are taken in (stable) order of merged-grid size,
    so in each chunk the segments of equal-size pairs are contiguous and each
    such group is one (pairs x segments) block, summed pairwise along its
    rows; a pair gets the same bits in any batch, alone too.  Working memory
    is these three (paths x |tau|) tables, 17 bytes a cell, plus one chunk of
    pairs.  measura's batches sit on a few dt-lattices, so tau stays short;
    grids that share no points make it as long as all grids together.
    """
    tau = _sorted_distinct(*(p.grid for p in points))
    on = np.zeros((len(points), tau.size), dtype=bool)
    right = np.empty((len(points), tau.size))
    for r, p in enumerate(points):
        on[r, tau.searchsorted(p.grid)] = True
        right[r] = np.interp(tau, p.grid, p.values, right=0.0)
    left = np.where(tau >= np.array([p.end for p in points])[:, None], 0.0, right)
    inv = np.array([0.0 if math.isinf(p.zeta) else 1.0 / p.zeta for p in points])
    step = max(1, _CHUNK_CELLS // tau.size)
    size = np.empty(i.size, dtype=np.intp)  # each pair's merged-grid size
    for lo in range(0, i.size, step):
        size[lo : lo + step] = np.count_nonzero(on[i[lo : lo + step]] | on[j[lo : lo + step]], axis=1)
    order = np.argsort(size, kind="stable")
    out = np.empty(i.size)
    for lo in range(0, i.size, step):
        k = order[lo : lo + step]
        a, b = i[k], j[k]
        row, pos = np.nonzero(on[a] | on[b])  # each pair's merged grid, a row each
        s = np.flatnonzero(row[1:] == row[:-1])  # segment s runs from pos[s] to pos[s + 1]
        row, p0, p1 = row[s], pos[s], pos[s + 1]
        ra, rb = a[row], b[row]
        x = np.concatenate((right[ra, p1] - right[rb, p1], left[ra, p0] - left[rb, p0]))
        seg = (tau[p1] - tau[p0]) * _segment_means(x, s.size)
        n = size[k]
        bounds = (np.flatnonzero(n[1:] != n[:-1]) + 1).tolist()
        start = 0
        for g0, g1 in zip([0, *bounds], [*bounds, k.size]):  # pairwise sums, as np.add.reduceat's are not
            block = seg[start : start + (g1 - g0) * (n[g0] - 1)].reshape(g1 - g0, n[g0] - 1)
            out[k[g0:g1]] = np.add.reduce(block, axis=1)
            start += block.size
    np.minimum(out, 1.0, out=out)
    out += np.abs(inv[i] - inv[j])
    return out


excursion_metric.many = _excursion_metric_many


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


# Lockstep simulation: paths run in blocks of _BLOCK path indices, one RNG
# stream per block.  Each chunk draws (alive x steps) normals and uniforms;
# chunk lengths start at _FIRST_CHUNK steps and double, cut so that
# alive x steps stays within _CELL_CAP cells.
_BLOCK = 1024
_FIRST_CHUNK = 16
_CELL_CAP = 8192


def _killed_chunks(eps: float, times: np.ndarray, rng: np.random.Generator, n: int):
    """Step n killed paths from eps in lockstep over the grid ``times`` (0, then increasing), a chunk at a time.

    Step k is an exact N(0, d) step, d = times[k] - times[k - 1]; the path is
    killed there when x_k <= 0 or u < exp(-2 x_{k-1} x_k / d), the chance that
    the Brownian bridge between the two values hits 0, so the law at the grid
    times is exact whatever the gaps.  Yields (ids, xs, first, done) per
    chunk: the ids of the paths alive at its start, their (alive x steps)
    positions, each row's index of its first kill (steps if it survives the
    chunk) and the number of steps done before it.  Killed paths retire after
    their chunk.  Consumers must not modify xs.
    """
    ids = np.arange(n)
    x = np.full(n, float(eps))
    done, size, total = 0, _FIRST_CHUNK, times.size - 1
    while ids.size and done < total:
        steps = min(size, total - done, max(1, _CELL_CAP // ids.size))
        gaps = np.diff(times[done : done + steps + 1])
        # in place, rounded as x_k + cumsum(z sqrt(d)) and exp(min(0, x_{k-1} x_k (-2 / d)))
        xs = rng.standard_normal((ids.size, steps))
        xs *= np.sqrt(gaps)
        np.cumsum(xs, axis=1, out=xs)
        xs += x[:, None]
        bridge = np.concatenate((x[:, None], xs[:, :-1]), axis=1)  # chance that the bridge from x_{k-1} to x_k hits 0
        bridge *= xs
        bridge *= -2.0 / gaps
        np.exp(np.minimum(bridge, 0.0, out=bridge), out=bridge)
        killed = (xs <= 0.0) | (rng.random((ids.size, steps)) < bridge)
        first = np.where(killed.any(axis=1), killed.argmax(axis=1), steps)
        yield ids, xs, first, done
        alive = first == steps
        x = xs[alive, -1]
        ids = ids[alive]
        done += steps
        size *= 2


def sample_killed_bm(eps: float, dt: float, horizon: float, seed) -> ExcursionPath:
    """One killed-Brownian path started at eps, absorbed at 0 or censored at the horizon.

    The path is ``_killed_chunks``'s single row on the dt-grid, stream ``default_rng(seed)``;
    an absorbed path ends with the 0 recorded at the absorption grid time.  The
    horizon must be a whole number of dt steps.
    """
    _require_finite(eps=eps, dt=dt, horizon=horizon)
    times = np.arange(_whole_steps(horizon, dt) + 1) * dt
    chunks, zeta = [np.array([float(eps)])], math.inf
    for _, xs, first, done in _killed_chunks(eps, times, np.random.default_rng(seed), 1):
        chunks.append(xs[0, : first[0]])
        if first[0] < xs.shape[1]:
            chunks.append(np.zeros(1))
            zeta = float(times[done + 1 + first[0]])
    values = np.concatenate(chunks)
    return ExcursionPath(times[: values.size], values, zeta)


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExcursionFunctional:
    """Lifetime weight times a product of time-window integrals.

    F(e) = h(zeta(e)) * prod_i ∫ f_i(t) g_i(e(t)) dt.

    ``h`` must be constant on [h_constant_after, inf); each pair is
    (f, f_support_end, g) with f supported in [0, f_support_end] and g(0) = 0
    (so the window integrand dies with the path).  f, g, h must accept numpy
    arrays.  h may step hard at h_constant_after, but ``target_rhs`` is
    accurate only for h smooth on 0.03-wide panels (see ``_hitting_kernel``).
    """

    h: Callable
    h_constant_after: float
    pairs: tuple[tuple[Callable, float, Callable], ...] = ()

    def __post_init__(self):
        _require_finite(h_constant_after=self.h_constant_after, nonnegative=True)
        for _, t_end, g in self.pairs:
            _require_finite(f_support_end=t_end)
            if not abs(float(g(0.0))) <= 1e-12:  # NaN fails too
                raise ValueError("level weights must vanish at 0")

    @property
    def h_tail_value(self) -> float:
        # sample strictly inside the constant ray: h need only be constant on
        # the open interval beyond the declared point (hard steps)
        return float(self.h(self.h_constant_after + 1.0))


def _check_censoring(F: ExcursionFunctional, end: float) -> None:
    """Raise if a path censored at grid time ``end`` leaves F undetermined."""
    if F.h_constant_after > end + 1e-12:
        raise RuntimeError("horizon too short: h not yet constant at censoring time")
    if any(t_end > end + 1e-12 for _, t_end, _ in F.pairs):
        raise RuntimeError("horizon too short: window support exceeds censoring time")


def eval_functional(F: ExcursionFunctional, e: ExcursionPath) -> float:
    """Evaluate the functional on one path (trapezoid over the path grid)."""
    if e.censored:
        _check_censoring(F, e.end)
        hval = F.h_tail_value
    else:
        hval = float(F.h(e.zeta))
    out = hval
    for f, t_end, g in F.pairs:
        mask = e.grid <= t_end + 1e-12
        t = e.grid[mask]
        integrand = np.asarray(f(t), dtype=float) * np.asarray(g(e.values[mask]), dtype=float)
        out *= float(np.trapezoid(integrand, t))
    return out


def _window_weights(F: ExcursionFunctional, dt: float, max_steps: int) -> list[tuple[np.ndarray, Callable]]:
    """(w f_i, g_i) per pair: trapezoid weights times f_i on the grid steps inside the window.

    The steps are 0..last with last * dt <= t_end + 1e-12 (and last <= max_steps),
    the points ``eval_functional`` integrates over; the last step of each
    window has half weight, whether or not a later window runs past it.  A
    window whose weights are all 0, the dt-grid missing every nonzero value
    of f_i, is refused: every estimate would read a silent 0.
    """
    out = []
    for i, (f, t_end, g) in enumerate(F.pairs):
        times = np.arange(min(max_steps, int((t_end + 1e-12) / dt) + 1) + 1) * dt
        times = times[times <= t_end + 1e-12]
        half_gaps = 0.5 * np.diff(times)
        w = np.zeros(times.size)
        w[:-1] += half_gaps
        w[1:] += half_gaps
        w *= np.asarray(f(times), dtype=float)
        if not w.any():
            raise ValueError(f"window {i} on [0, {t_end}] weighs no step of the grid at dt {dt}: "
                             f"f is 0 at each of its steps up to {times[-1]}")
        out.append((w, g))
    return out


def _lockstep_block(F: ExcursionFunctional, windows: list[tuple[np.ndarray, Callable]], eps: float,
                    times: np.ndarray, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lifetimes and functional values of n killed paths from eps, stepped by ``_killed_chunks`` over ``times``.

    Window weights are given at times[0], times[1], ... as far as each window
    runs; the integrals accumulate chunk by chunk (values after the kill are
    zero), so no path is stored.  Returns (zeta, values); zeta is the grid
    time of the kill, inf for paths censored at times[-1].
    """
    kill_step = np.zeros(n, dtype=np.int64)  # 0 while alive or censored
    acc = [np.full(n, w[0] * float(g(eps))) for w, g in windows]
    for ids, xs, first, done in _killed_chunks(eps, times, rng, n):
        steps = xs.shape[1]
        for (w, g), a in zip(windows, acc):
            cols = min(steps, w.size - 1 - done)
            if cols > 0:
                live = np.where(np.arange(cols) < first[:, None], xs[:, :cols], 0.0)
                a[ids] += np.asarray(g(live), dtype=float) @ w[done + 1 : done + 1 + cols]
        dead = first < steps
        kill_step[ids[dead]] = done + 1 + first[dead]

    absorbed = kill_step > 0
    zeta = np.where(absorbed, times[kill_step], math.inf)
    values = np.empty(n)
    if not absorbed.all():
        _check_censoring(F, float(times[-1]))
        values[~absorbed] = F.h_tail_value
    values[absorbed] = np.asarray(F.h(zeta[absorbed]), dtype=float)
    for a in acc:
        values *= a
    return zeta, values


def empirical_lhs(
    F: ExcursionFunctional,
    eps: float,
    n_paths: int,
    dt: float,
    horizon: float,
    seed: int,
) -> tuple[float, float]:
    """(1/eps) E_eps[F] by Monte Carlo over killed-Brownian paths.

    The horizon must be a whole number of dt steps.  Paths are stepped only
    at the dt-grid points F reads: 0, the horizon,
    each point of nonzero window weight and each k with h(k dt) != h((k + 1) dt).
    In between, window weights are 0 and h has one value, so a kill there,
    recorded at the next kept point, leaves F unchanged, and the bridge kill
    keeps the law at the kept points exact: the estimate is the dt-grid one.

    Paths run in lockstep blocks of 1024 path indices; block b draws from its
    own RNG stream, derived from (seed, b), so the draws of a full block do
    not depend on how many paths run.  The working memory is bounded by the
    chunk cap of 8192 (paths x steps) cells, the per-block accumulators and
    the window weights; it grows with neither n_paths nor the horizon.
    Returns (mean, standard error).
    """
    n_paths = _require_int("n_paths", n_paths, 100)
    _require_finite(eps=eps, dt=dt, horizon=horizon)
    max_steps = _whole_steps(horizon, dt)
    windows = _window_weights(F, dt, max_steps)
    h_grid = np.arange(int(min(max_steps, max(F.h_constant_after / dt, 0.0) + 2.0)) + 1) * dt  # past h_constant_after
    h_on_grid = np.broadcast_to(np.asarray(F.h(h_grid), dtype=float), h_grid.shape)  # h may return a scalar
    kept = _sorted_distinct([0, max_steps], np.flatnonzero(h_on_grid[1:] != h_on_grid[:-1]),
                            *(np.flatnonzero(w) for w, _ in windows))
    windows = [(w[kept[kept < w.size]], g) for w, g in windows]
    blocks = []  # (paths, mean, sum of squared deviations) per block
    for b, start in enumerate(range(0, n_paths, _BLOCK)):
        _, vals = _lockstep_block(F, windows, eps, kept * dt, np.random.default_rng((seed, b)),
                                  min(_BLOCK, n_paths - start))
        mean = vals.mean()
        blocks.append((vals.size, mean, np.sum((vals - mean) ** 2)))
    n, means, sq = np.array(blocks).T
    mean = float(np.sum(n * means)) / n_paths
    sq_dev = float(np.sum(sq + n * (means - mean) ** 2))
    return mean / eps, math.sqrt(sq_dev / (n_paths - 1) / n_paths) / eps


_HIT_BLOCK = 16  # window times per table block; the block, not the step count, sizes the working table

# Gauss-Legendre nodes and weights on [-1, 1], the bits numpy.polynomial.legendre.leggauss(n) returns
_GAUSS_LEGENDRE = {
    6: (np.array([-0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
                  0.2386191860831969, 0.6612093864662645, 0.9324695142031519]),
        np.array([0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
                  0.46791393457269104, 0.3607615730481387, 0.17132449237917027])),
    8: (np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
                  0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362]),
        np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
                  0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706])),
}


class _hitting_kernel:
    """H(t, a) = ∫ h(t + s) l^a(s) ds in levels a >= 0, for times t >= 0, h = h_tail past s_max.

    W[i, k] = l^{a_i}(s_k) w_k, ``levy_hitting_density`` times the weights
    of 6-point Gauss-Legendre panels (doubling from 2e-16 to 0.06, then at
    most 0.03 wide), maps h(t + s) - h_tail to H - h_tail on 400 levels
    log-spaced from 1e-7 to 5.5 sqrt(s_max).  The rule is
    ``_GAUSS_LEGENDRE[6]``, which holds leggauss(6)'s bits, so the table is
    leggauss's and no call imports numpy.polynomial.  ``rows(times)`` yields H on
    those levels at each time in turn, built _HIT_BLOCK times at once: one h
    call on (block x nodes) and one matrix product with W per block, so the
    table is re-read once per block, not once per time, and its working size
    depends on neither the number of times nor the caller's paths.
    ``read(row, levels)``, a 4-point Lagrange interpolation in log a, reads
    off the levels asked for, clamped into that range (below it H is within
    O(a) of h(t); above it l^a has mass under 4e-8 on (0, s_max]);
    ``hit(t, levels)`` is the two at one time t.  The error stays below 1e-6
    for h smooth on the panel width.  A hard step is not resolved: for
    h = 1_{r > 1} against erf(a / sqrt(2 (1 - t))) on levels 1e-4 to 5, the
    error reaches 3.0e-4, 1.6e-3 and 6.9e-3 at t = 0.5, 0.77 and 0.9.  The
    last bits of the block product depend on the BLAS thread count, so the
    bits of H repeat only at a fixed count.
    """

    def __init__(self, h: Callable, h_tail: float, s_max: float):
        s_max = max(s_max, 0.06)  # h(t + s) - h_tail vanishes beyond the given s_max
        edges = np.concatenate((np.geomspace(2e-16, 0.06, 49)[:-1],
                                np.linspace(0.06, s_max, 1 + math.ceil((s_max - 0.06) / 0.03))))
        x, w = _GAUSS_LEGENDRE[6]
        half = np.diff(edges)[:, None] / 2.0
        self.h, self.h_tail = h, h_tail
        self.s = (edges[:-1, None] + half * (1.0 + x)).ravel()
        self.log_a = np.linspace(math.log(1e-7), math.log(5.5 * math.sqrt(s_max)), 400)
        self.a = np.exp(self.log_a)
        self.W = levy_hitting_density(self.a[:, None], self.s)
        self.W *= (half * w).ravel()

    def rows(self, times: np.ndarray) -> Iterator[np.ndarray]:
        times = np.asarray(times, dtype=float)
        for start in range(0, times.size, _HIT_BLOCK):
            t = times[start : start + _HIT_BLOCK, None]
            h_minus_tail = np.asarray(self.h((t + self.s).ravel()), dtype=float) - self.h_tail
            table = h_minus_tail.reshape(t.size, self.s.size) @ self.W.T
            table += self.h_tail
            yield from table

    def read(self, row: np.ndarray, levels: np.ndarray) -> np.ndarray:
        log_a = self.log_a
        u = (np.clip(np.log(np.maximum(levels, self.a[0])), log_a[0], log_a[-1]) - log_a[0]) / (log_a[1] - log_a[0])
        i = np.clip(u.astype(np.int64) - 1, 0, log_a.size - 4)
        u -= i  # position among the four levels i..i+3, in [0, 3]
        u1, u2, u3 = u - 1.0, u - 2.0, u - 3.0
        return (u2 * u3 * (u * row[i + 1] - u1 * row[i] / 3.0)
                + u * u1 * (u2 * row[i + 3] / 3.0 - u3 * row[i + 2])) / 2.0

    def __call__(self, t: float, levels: np.ndarray) -> np.ndarray:
        return self.read(next(self.rows([t])), levels)


def target_rhs(
    F: ExcursionFunctional,
    n_bessel: int,
    dt: float,
    r_grid: Sequence[float],
    seed,
) -> tuple[float, float]:
    """∫ F dmu_exc via the Bessel representation; returns (value, std error).

    F must have at least one window pair.  Without one the target is the
    plain integral ∫ h(r) kappa(r) dr of the length intensity, which the
    ``excursion`` claim takes in closed form.

    n_bessel >= 2 (an int) paths of a 3-d Bessel process from 0 are stepped
    exactly (as the norm of a 3-d Brownian motion) only at the dt-grid steps
    some pair weighs: each step draws 3 normals per path and takes one exact
    Gaussian step of variance times[j] - times[prev] from the previous
    weighed step (from 0 for the first), over any stretch no window reads.
    The joint law of rho at the weighed steps, so the estimator's law, is
    that of stepping every dt; a functional weighed at every step from 0
    gets those draws bit for bit.  The r-integral against the hitting
    density comes from ``_hitting_kernel``, untruncated, so h must be smooth
    on its 0.03-wide panels (a hard step in h leaves H off by up to 7e-3);
    ``r_grid`` is checked but unused.  The kernel's level rows at the
    weighed steps are built _HIT_BLOCK steps per matrix product, ahead of
    the paths, and each step reads its own row at that step's rho.  Each
    pair's t-integral uses the window rule of ``empirical_lhs`` and
    ``eval_functional``, the trapezoid rule on the steps inside that pair's
    window (``_window_weights``), so the last step of a window has half weight.
    The t-quadrature runs over all orderings of the pairs' time indices
    through the max-index decomposition, carried as running prefix sums, so
    any number of pairs costs O(grid) per path and the working memory,
    O(paths x pairs) plus the kernel's table and one block of rows, does not
    grow with the number of time steps.  Its bits repeat only at a fixed
    BLAS thread count (``_hitting_kernel``).
    """
    if not F.pairs:
        raise ValueError("target_rhs needs at least one window pair (f, f_support_end, g)")
    n_bessel = _require_int("n_bessel", n_bessel, 2)
    _require_finite(dt=dt)
    r = np.asarray(r_grid, dtype=float)
    if r.size < 2 or r[0] < 0.0 or np.any(np.diff(r) <= 0):
        raise ValueError("r_grid must be increasing and nonnegative")
    t_max = max(t_end for _, t_end, _ in F.pairs)
    n_steps = int(math.ceil(t_max / dt))
    times = np.arange(n_steps + 1) * dt

    # zero past each window on the common time grid
    wf = [np.pad(w, (0, times.size - w.size)) for w, _ in _window_weights(F, dt, n_steps)]

    rng = np.random.default_rng(seed)
    pos = np.zeros((3, n_bessel))  # one row per coordinate, so rho sums three rows
    prefix = np.zeros((len(F.pairs), n_bessel))  # S_i = sum over k < j of P_ik
    per_path = np.zeros(n_bessel)
    steps = np.flatnonzero(np.any(np.array(wf) != 0.0, axis=0))  # outside every window, P_ij = 0 adds nothing
    hit = _hitting_kernel(F.h, F.h_tail_value, F.h_constant_after)
    rows = hit.rows(times[steps])  # H on the kernel's levels at each weighed step, in step order
    prev = 0
    for j in steps:
        if j:  # rho at the steps in between is never read: one exact step across them
            pos += rng.standard_normal((n_bessel, 3)).T * math.sqrt(times[j] - times[prev])
            prev = j
        rho = np.sqrt(pos[0] * pos[0] + pos[1] * pos[1] + pos[2] * pos[2])
        # sum over index tuples, split by the position of the maximal time
        # index: prod_i (S_i + P_ij) - prod_i S_i collects exactly the tuples
        # whose maximum equals j, with P_ij = w_j f_i(t_j) g_i(rho_j).
        with_j = np.ones(n_bessel)
        without_j = np.ones(n_bessel)
        for i, (_, _, g) in enumerate(F.pairs):
            P = wf[i][j] * np.asarray(g(rho), dtype=float)
            with_j *= prefix[i] + P
            without_j *= prefix[i]
            prefix[i] += P
        ratio = np.divide(1.0, rho, out=np.zeros(n_bessel), where=rho > 0.0)
        per_path += (with_j - without_j) * ratio * hit.read(next(rows), rho)

    return float(per_path.mean()), float(per_path.std(ddof=1) / math.sqrt(n_bessel))


# ---------------------------------------------------------------------------
# Bessel semigroup diagnostics
# ---------------------------------------------------------------------------


_BESSEL_BINS = 24  # equal-width histogram bins on [0, x + 4.5 sqrt(t)]


@dataclass(frozen=True)
class BesselCheckReport:
    sup_deviation: float
    se_max: float

    @property
    def ok(self) -> bool:
        return self.sup_deviation < 3.0 * self.se_max


def _bessel_cdf(y, t: float, x: float) -> np.ndarray:
    """P(rho_t <= y) for the 3-d Bessel process rho from x >= 0, elementwise in y >= 0.

    From x > 0 the law is the h-transform x^-1 y (phi_t(y - x) - phi_t(y + x)) dy
    of killed Brownian motion, so
    P(rho_t <= y) = (erf((y - x)/sqrt(2t)) + erf((y + x)/sqrt(2t)))/2 - (t/x)(phi_t(y - x) - phi_t(y + x));
    from 0 it is the Maxwell limit erf(y/sqrt(2t)) - y sqrt(2/(pi t)) exp(-y^2/(2t)).
    """
    y = np.asarray(y, dtype=float)
    s = math.sqrt(2.0 * t)
    if x == 0.0:
        return np.asarray(_erf(y / s), dtype=float) - y * math.sqrt(2.0 / (math.pi * t)) * np.exp(-((y / s) ** 2))
    lo, hi = (y - x) / s, (y + x) / s
    # phi_t(y - x) - phi_t(y + x) = (exp(-lo^2) - exp(-hi^2)) / (sqrt(pi) s)
    kernel = (np.exp(-(lo**2)) - np.exp(-(hi**2))) / (math.sqrt(math.pi) * s)
    return 0.5 * np.asarray(_erf(lo) + _erf(hi), dtype=float) - (t / x) * kernel


def bessel_semigroup_check(t: float, x: float, n_samples: int, seed) -> BesselCheckReport:
    """Histogram of the 3-d Bessel marginal at time t against its stated law.

    Started at x > 0 the marginal is the h-transform x^-1 Q_t(x, dy) y of
    killed Brownian motion (reflection-principle kernel); started at 0 it is
    the entrance law 2 kappa(t) y^2 exp(-y^2/(2t)) dy.  The marginal is drawn
    exactly as the norm of a shifted 3-d Gaussian; the exact bin masses are
    differences of ``_bessel_cdf``.
    """
    _require_finite(t=t)
    _require_finite(x=x, nonnegative=True)
    n_samples = _require_int("n_samples", n_samples, 1)
    rng = np.random.default_rng(seed)
    samples = np.linalg.norm(
        np.array([x, 0.0, 0.0]) + rng.standard_normal((n_samples, 3)) * math.sqrt(t), axis=1
    )
    y_max = x + 4.5 * math.sqrt(t)
    edges = np.linspace(0.0, y_max, _BESSEL_BINS + 1)
    counts, _ = np.histogram(samples, bins=edges)
    empirical = counts / n_samples
    exact = np.diff(_bessel_cdf(edges, t, x))
    se = np.sqrt(np.clip(exact * (1.0 - exact), 0.0, None) / n_samples)
    return BesselCheckReport(sup_deviation=float(np.max(np.abs(empirical - exact))), se_max=float(se.max()))


_ORACLE_PANELS = 100  # Gauss-Legendre panels of 8 nodes in y on [0, eps + 10 sqrt(t)]


def target_oracle(F: ExcursionFunctional, dt: float, eps: float = 0.0) -> float:
    """(1/eps) E_eps[F] for one window pair by deterministic quadrature; at eps = 0, ``target_rhs``'s mean.

    By the Markov property at time t, with the killed kernel
    q_t(x, y) = phi_t(y - x) - phi_t(y + x) and H(t, y) = E h(t + T_y),

        (1/eps) E_eps[F] = ∫ f(t) ∫ (q_t(eps, y)/eps) g(y) H(t, y) dy dt,

    and q_t(eps, y)/eps tends to (2y/t) phi_t(y) as eps -> 0, the law of
    the 3-d Bessel marginal rho_t from 0 times the weight 1/y that
    ``target_rhs`` samples.  The t-integral is the window rule of
    ``target_rhs`` at step dt; at t = 0 the path sits at eps, which adds
    g(eps) H(0, eps)/eps for eps > 0 and nothing in the limit.  The
    y-integral runs over _ORACLE_PANELS panels of ``_GAUSS_LEGENDRE[8]``,
    which holds leggauss(8)'s bits, and H comes from ``_hitting_kernel``,
    whose rows at the window steps are built in blocks as in ``target_rhs``,
    so its bits repeat only at a fixed BLAS thread count.  F must have
    exactly one window pair.
    """
    if len(F.pairs) != 1:
        raise ValueError("target_oracle takes exactly one window pair")
    _require_finite(dt=dt)
    _require_finite(eps=eps, nonnegative=True)
    [(w, g)] = _window_weights(F, dt, int(math.ceil(F.pairs[0][1] / dt)))
    hit = _hitting_kernel(F.h, F.h_tail_value, F.h_constant_after)
    x, wx = _GAUSS_LEGENDRE[8]
    unit = ((np.arange(_ORACLE_PANELS)[:, None] + (1.0 + x) / 2.0) / _ORACLE_PANELS).ravel()  # nodes on [0, 1]
    unit_w = np.tile(wx / (2.0 * _ORACLE_PANELS), _ORACLE_PANELS)
    total = float(w[0] * g(eps) * hit(0.0, np.array([eps]))[0]) / eps if eps > 0.0 else 0.0
    steps = np.flatnonzero(w[1:]) + 1
    for j, row in zip(steps, hit.rows(steps * dt)):
        t = j * dt
        span = eps + 10.0 * math.sqrt(t)
        y = span * unit
        if eps > 0.0:
            dens = (np.exp(-((y - eps) ** 2) / (2.0 * t)) - np.exp(-((y + eps) ** 2) / (2.0 * t))) / eps
        else:
            dens = 2.0 * y / t * np.exp(-(y * y) / (2.0 * t))
        dens *= span * unit_w / math.sqrt(TWO_PI * t)
        total += float(w[j]) * float(dens @ (np.asarray(g(y), dtype=float) * hit.read(row, y)))
    return total


# ---------------------------------------------------------------------------
# Ready-made ingredient functions (numpy-vectorized)
# ---------------------------------------------------------------------------


def smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def step_indicator(threshold: float, width: float = 0.0) -> Callable:
    """1_{r > threshold}, C^1-smoothed over [threshold, threshold + width] if width > 0; width 0 is a hard step."""
    _require_finite(threshold=threshold, width=width, nonnegative=True)
    if width == 0.0:
        return lambda r: np.where(np.asarray(r, dtype=float) > threshold, 1.0, 0.0)
    return lambda r: smoothstep((np.asarray(r, dtype=float) - threshold) / width)


def smoothed_cutoff(start: float, width: float) -> Callable:
    """1 on [0, start], C^1 decay to 0 on [start, start + width], 0 after."""
    _require_finite(start=start, nonnegative=True)
    _require_finite(width=width)
    return lambda r: 1.0 - smoothstep((np.asarray(r, dtype=float) - start) / width)


def smoothed_bump(a: float, b: float, width: float) -> Callable:
    """C^1 bump: 0 outside [a, b], 1 on [a + width, b - width]."""
    _require_finite(a=a, b=b, nonnegative=True)
    _require_finite(width=width)
    if b - a <= 2.0 * width:
        raise ValueError("bump too narrow for the requested shoulder width")

    def fn(tvals):
        tvals = np.asarray(tvals, dtype=float)
        return smoothstep((tvals - a) / width) * (1.0 - smoothstep((tvals - (b - width)) / width))

    return fn
