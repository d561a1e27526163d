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
from typing import Callable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi
# numpy has no erf: math.erf, applied elementwise, serves _bessel_cdf
_erf = np.frompyfunc(math.erf, 1, 1)


def kappa(r):
    """(2 pi r^3)^(-1/2), the excursion-length intensity."""
    r = np.asarray(r, dtype=float)
    return (TWO_PI * r**3) ** (-0.5)


def levy_hitting_density(alpha, r):
    """Density of the first time Brownian motion from alpha > 0 hits 0.

    l^alpha(r) = alpha (2 pi r^3)^(-1/2) exp(-alpha^2/(2r)); broadcasts over
    both arguments and returns 0 at r <= 0.
    """
    alpha = np.asarray(alpha, dtype=float)
    r = np.asarray(r, dtype=float)
    safe = np.where(r > 0.0, r, 1.0)
    val = alpha * (TWO_PI * safe**3) ** (-0.5) * np.exp(-(alpha**2) / (2.0 * safe))
    return np.where(r > 0.0, val, 0.0)


@dataclass(frozen=True)
class ExcursionPath:
    """Nonnegative path on a uniform grid with an explicit lifetime.

    ``zeta`` is the first grid time the path is absorbed at 0; censored paths
    (not absorbed before the horizon) carry ``zeta = inf``, and that is what
    ``censored`` reads.  Values at grid times beyond the lifetime are zero,
    and the path is extended by zero past its grid.
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
        if np.any(values < 0.0):
            raise ValueError("path values must be nonnegative")
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


def excursion_metric(e1: ExcursionPath, e2: ExcursionPath) -> float:
    """(∫ |e1 - e2| ∧ 1 dt) ∧ 1 + |1/zeta_1 - 1/zeta_2|.

    The integral is exact for the piecewise-linear representation: on each
    linear piece of the merged grid, min(|e1 - e2|, 1) is integrated in closed
    form, kinks at the crossings of the difference through 0 and +-1
    included, so the grid is never refined.  Plain trapezoid on the merged
    grid can violate the triangle inequality by O(dt); the exact value cannot.
    """
    tau = np.concatenate((e1.grid, e2.grid))
    tau.sort()
    tau = tau[np.concatenate(([True], tau[1:] != tau[:-1]))]  # the merged grid, as np.union1d gives it
    left, right = tau[:-1], tau[1:]
    ends = []
    for path in (e1, e2):
        # values at the segment ends, zero on the open interval (end, inf): a
        # segment whose left end sits at the grid end starts from 0
        v = np.interp(tau, path.grid, path.values, right=0.0)
        ends.append((np.where(left >= path.end, 0.0, v[:-1]), v[1:]))
    (v1l, v1r), (v2l, v2r) = ends
    lo, hi = v1l - v2l, v1r - v2r
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    # mean of min(|x|, 1) for x uniform on [lo, hi], from its antiderivative
    x = np.concatenate((hi, lo))
    ax, sx = np.abs(x), np.sign(x)
    anti = np.where(ax <= 1.0, sx * x * x / 2.0, sx * (ax - 0.5))
    span = hi - lo
    flat = span <= 0.0
    avg = (anti[: span.size] - anti[span.size:]) / np.where(flat, 1.0, span)
    mean = np.where(flat, np.minimum(np.abs(lo), 1.0), avg)
    integral = float(np.sum((right - left) * mean))
    inv1 = 0.0 if math.isinf(e1.zeta) else 1.0 / e1.zeta
    inv2 = 0.0 if math.isinf(e2.zeta) else 1.0 / e2.zeta
    return min(integral, 1.0) + abs(inv1 - inv2)


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


def _killed_chunks(eps: float, dt: float, max_steps: int, rng: np.random.Generator, n: int):
    """Step n killed paths from eps in lockstep, one chunk of grid steps at a time.

    Exact Gaussian steps; a path is killed at step k + 1 when x_{k+1} <= 0 or
    u < exp(-2 x_k x_{k+1} / dt), the chance that the Brownian bridge between
    the two grid values hits 0.  Yields (ids, xs, first, done) per chunk: the
    ids of the paths alive at its start, their (alive x steps) positions, each
    row's index of its first kill (steps if it survives the chunk) and the
    number of steps done before the chunk.  Killed paths retire after their
    chunk; the rest run to max_steps.  Consumers must not modify xs.
    """
    sqdt = math.sqrt(dt)
    ids = np.arange(n)
    x = np.full(n, float(eps))
    done, size = 0, _FIRST_CHUNK
    while ids.size and done < max_steps:
        steps = min(size, max_steps - done, max(1, _CELL_CAP // ids.size))
        # in place, rounded as x_k + sqdt * cumsum(z) and exp(min(0, -2 x_k x_{k+1} / dt))
        xs = np.cumsum(rng.standard_normal((ids.size, steps)), axis=1)
        xs *= sqdt
        xs += x[:, None]
        bridge = np.empty_like(xs)  # chance that the bridge between x_k and x_{k+1} hits 0
        bridge[:, 0] = x
        bridge[:, 1:] = xs[:, :-1]
        bridge *= xs
        bridge *= -2.0
        bridge /= dt
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

    The path is ``_killed_chunks``'s single row with stream ``default_rng(seed)``;
    an absorbed path ends with the 0 recorded at the absorption grid time.
    """
    if eps <= 0.0 or dt <= 0.0:
        raise ValueError("eps and dt must be positive")
    chunks = [np.array([float(eps)])]
    absorbed = False
    for _, xs, first, _ in _killed_chunks(eps, dt, int(round(horizon / dt)), np.random.default_rng(seed), 1):
        chunks.append(xs[0, : first[0]])
        absorbed = bool(first[0] < xs.shape[1])
    if absorbed:
        chunks.append(np.zeros(1))
    values = np.concatenate(chunks)
    grid = np.arange(values.size) * dt
    return ExcursionPath(grid, values, float(grid[-1]) if absorbed else math.inf)


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
        for _, t_end, g in self.pairs:
            if t_end <= 0.0:
                raise ValueError("window support must have positive length")
            if abs(float(g(0.0))) > 1e-12:
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
    window has half weight, whether or not a later window runs past it.
    """
    out = []
    for f, t_end, g in F.pairs:
        times = np.arange(min(max_steps, int((t_end + 1e-12) / dt) + 1) + 1) * dt
        times = times[times <= t_end + 1e-12]
        half_gaps = 0.5 * np.diff(times)
        w = np.zeros(times.size)
        w[:-1] += half_gaps
        w[1:] += half_gaps
        out.append((w * np.asarray(f(times), dtype=float), g))
    return out


def _lockstep_block(
    F: ExcursionFunctional,
    windows: list[tuple[np.ndarray, Callable]],
    eps: float,
    dt: float,
    max_steps: int,
    rng: np.random.Generator,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Lifetimes and functional values of n killed paths from eps, stepped by ``_killed_chunks``.

    Window integrals accumulate chunk by chunk (values after the kill are
    zero), so no path is stored.  Returns (zeta, values); zeta is the grid
    time of the kill, inf for paths censored at max_steps.
    """
    kill_step = np.zeros(n, dtype=np.int64)  # 0 while alive or censored
    acc = [np.full(n, w[0] * float(g(eps))) for w, g in windows]
    for ids, xs, first, done in _killed_chunks(eps, dt, max_steps, rng, n):
        steps = xs.shape[1]
        for (w, g), a in zip(windows, acc):
            cols = min(steps, w.size - 1 - done)
            if cols > 0:
                live = np.where(np.arange(cols) < first[:, None], xs[:, :cols], 0.0)
                a[ids] += np.asarray(g(live), dtype=float) @ w[done + 1 : done + 1 + cols]
        dead = first < steps
        kill_step[ids[dead]] = done + 1 + first[dead]

    absorbed = kill_step > 0
    zeta = np.where(absorbed, kill_step * dt, math.inf)
    values = np.empty(n)
    if not absorbed.all():
        _check_censoring(F, max_steps * dt)
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

    Paths run in lockstep blocks of 1024 path indices; block b draws from its
    own RNG stream, derived from (seed, b), so the draws of a full block do
    not depend on how many paths run.  The working memory is bounded by the
    chunk cap of 8192 (paths x steps) cells, the per-block accumulators and
    the window weights; it grows with neither n_paths nor the horizon.
    Returns (mean, standard error).
    """
    if n_paths < 100:
        raise ValueError("n_paths must be at least 100")
    if eps <= 0.0 or dt <= 0.0:
        raise ValueError("eps and dt must be positive")
    max_steps = int(round(horizon / dt))
    windows = _window_weights(F, dt, max_steps)
    blocks = []  # (paths, mean, sum of squared deviations) per block
    for b, start in enumerate(range(0, n_paths, _BLOCK)):
        _, vals = _lockstep_block(F, windows, eps, dt, max_steps, np.random.default_rng((seed, b)),
                                  min(_BLOCK, n_paths - start))
        mean = vals.mean()
        blocks.append((vals.size, mean, np.sum((vals - mean) ** 2)))
    n, means, sq = np.array(blocks).T
    mean = float(np.sum(n * means)) / n_paths
    sq_dev = float(np.sum(sq + n * (means - mean) ** 2))
    return mean / eps, math.sqrt(sq_dev / (n_paths - 1) / n_paths) / eps


def _hitting_kernel(h: Callable, h_tail: float, s_max: float) -> Callable:
    """hit(t, a) = H(t, a) = ∫ h(t + s) l^a(s) ds elementwise in levels a >= 0, for t >= 0, h = h_tail past s_max.

    W[i, k] = l^{a_i}(s_k) w_k, built in place, maps h(t + s) - h_tail on
    6-point Gauss-Legendre panels (doubling from 2e-16 to 0.06, then at most
    0.03 wide) to H - h_tail on 400 levels log-spaced from 1e-7 to
    5.5 sqrt(s_max); a 4-point Lagrange interpolation in log a reads off the
    levels asked for, clamped into that range (below it H is within O(a) of
    h(t); above it l^a has mass under 4e-8 on (0, s_max]).  The error stays
    below 1e-6 for h smooth on the panel width.  A hard step is not resolved:
    for h = 1_{r > 1} against erf(a / sqrt(2 (1 - t))) on levels 1e-4 to 5,
    the error reaches 3.0e-4, 1.6e-3 and 6.9e-3 at t = 0.5, 0.77 and 0.9.
    """
    from numpy.polynomial.legendre import leggauss

    s_max = max(s_max, 0.06)  # h(t + s) - h_tail vanishes beyond the given s_max
    edges = np.concatenate((np.geomspace(2e-16, 0.06, 49)[:-1],
                            np.linspace(0.06, s_max, 1 + math.ceil((s_max - 0.06) / 0.03))))
    x, w = leggauss(6)
    half = np.diff(edges)[:, None] / 2.0
    s = (edges[:-1, None] + half * (1.0 + x)).ravel()
    log_a = np.linspace(math.log(1e-7), math.log(5.5 * math.sqrt(s_max)), 400)
    a = np.exp(log_a)
    W = np.empty((a.size, s.size))
    np.exp(np.multiply.outer(a * a, -0.5 / s, out=W), out=W)
    W *= a[:, None]
    W *= kappa(s) * (half * w).ravel()

    def hit(t: float, levels: np.ndarray) -> np.ndarray:
        on_grid = W @ (np.asarray(h(t + s), dtype=float) - h_tail) + h_tail
        u = (np.clip(np.log(np.maximum(levels, a[0])), log_a[0], log_a[-1]) - log_a[0]) / (log_a[1] - log_a[0])
        i = np.clip(u.astype(np.int64) - 1, 0, a.size - 4)
        u -= i  # position among the four levels i..i+3, in [0, 3]
        u1, u2, u3 = u - 1.0, u - 2.0, u - 3.0
        return (u2 * u3 * (u * on_grid[i + 1] - u1 * on_grid[i] / 3.0)
                + u * u1 * (u2 * on_grid[i + 3] / 3.0 - u3 * on_grid[i + 2])) / 2.0

    return hit


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

    n_bessel >= 2 paths of a 3-d Bessel process from 0 are stepped exactly
    (as the norm of a 3-d Brownian motion) along the f-support grid, and the
    r-integral against the hitting density comes from ``_hitting_kernel``,
    untruncated, so h must be smooth on its 0.03-wide panels (a hard step in
    h leaves H off by up to 7e-3); ``r_grid`` is checked but unused.  Each
    pair's t-integral uses the window rule of ``empirical_lhs`` and
    ``eval_functional``, the trapezoid rule on the steps inside that pair's
    window (``_window_weights``), so the last step of a window has half weight.
    The t-quadrature runs over all orderings of the pairs' time indices
    through the max-index decomposition, carried as running prefix sums, so
    any number of pairs costs O(grid) per path and the working memory,
    O(paths x pairs) plus the kernel's table, does not grow with the number
    of time steps.
    """
    if not F.pairs:
        raise ValueError("target_rhs needs at least one window pair (f, f_support_end, g)")
    if n_bessel < 2:
        raise ValueError("n_bessel must be at least 2")
    r = np.asarray(r_grid, dtype=float)
    if r.size < 2 or r[0] < 0.0 or np.any(np.diff(r) <= 0):
        raise ValueError("r_grid must be increasing and nonnegative")
    t_max = max(t_end for _, t_end, _ in F.pairs)
    n_steps = int(math.ceil(t_max / dt))
    times = np.arange(n_steps + 1) * dt

    # zero past each window on the common time grid
    wf = [np.pad(w, (0, times.size - w.size)) for w, _ in _window_weights(F, dt, n_steps)]

    rng = np.random.default_rng(seed)
    hit = _hitting_kernel(F.h, F.h_tail_value, F.h_constant_after)
    pos = np.zeros((3, n_bessel))  # one row per coordinate, so rho sums three rows
    prefix = np.zeros((len(F.pairs), n_bessel))  # S_i = sum over k < j of P_ik
    per_path = np.zeros(n_bessel)
    inside = np.any(np.array(wf) != 0.0, axis=0)  # outside every window, P_ij = 0 adds nothing
    for j in range(times.size):
        if j:
            pos += rng.standard_normal((n_bessel, 3)).T * math.sqrt(times[j] - times[j - 1])
        if not inside[j]:
            continue
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
        per_path += (with_j - without_j) * ratio * hit(times[j], rho)

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
    if t <= 0.0:
        raise ValueError("t must be positive")
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
    y-integral runs over _ORACLE_PANELS Gauss-Legendre panels, and H comes
    from ``_hitting_kernel``.  F must have exactly one window pair.
    """
    if len(F.pairs) != 1:
        raise ValueError("target_oracle takes exactly one window pair")
    if dt <= 0.0 or eps < 0.0:
        raise ValueError("dt must be positive and eps nonnegative")
    from numpy.polynomial.legendre import leggauss

    [(w, g)] = _window_weights(F, dt, int(math.ceil(F.pairs[0][1] / dt)))
    hit = _hitting_kernel(F.h, F.h_tail_value, F.h_constant_after)
    x, wx = leggauss(8)
    unit = ((np.arange(_ORACLE_PANELS)[:, None] + (1.0 + x) / 2.0) / _ORACLE_PANELS).ravel()  # nodes on [0, 1]
    unit_w = np.tile(wx / (2.0 * _ORACLE_PANELS), _ORACLE_PANELS)
    total = float(w[0] * g(eps) * hit(0.0, np.array([eps]))[0]) / eps if eps > 0.0 else 0.0
    for j in np.flatnonzero(w[1:]) + 1:
        t = j * dt
        span = eps + 10.0 * math.sqrt(t)
        y = span * unit
        if eps > 0.0:
            dens = (np.exp(-((y - eps) ** 2) / (2.0 * t)) - np.exp(-((y + eps) ** 2) / (2.0 * t))) / eps
        else:
            dens = 2.0 * y / t * np.exp(-(y * y) / (2.0 * t))
        dens *= span * unit_w / math.sqrt(TWO_PI * t)
        total += float(w[j]) * float(dens @ (np.asarray(g(y), dtype=float) * hit(t, y)))
    return total


# ---------------------------------------------------------------------------
# Ready-made ingredient functions (numpy-vectorized)
# ---------------------------------------------------------------------------


def smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def step_indicator(threshold: float, width: float = 0.0) -> Callable:
    """1_{r > threshold}, optionally C^1-smoothed over [threshold, threshold + width]."""
    if width <= 0.0:
        return lambda r: np.where(np.asarray(r, dtype=float) > threshold, 1.0, 0.0)
    return lambda r: smoothstep((np.asarray(r, dtype=float) - threshold) / width)


def smoothed_cutoff(start: float, width: float) -> Callable:
    """1 on [0, start], C^1 decay to 0 on [start, start + width], 0 after."""
    return lambda r: 1.0 - smoothstep((np.asarray(r, dtype=float) - start) / width)


def smoothed_bump(a: float, b: float, width: float) -> Callable:
    """C^1 bump: 0 outside [a, b], 1 on [a + width, b - width]."""
    if b - a <= 2.0 * width:
        raise ValueError("bump too narrow for the requested shoulder width")

    def fn(tvals):
        tvals = np.asarray(tvals, dtype=float)
        return smoothstep((tvals - a) / width) * (1.0 - smoothstep((tvals - (b - width)) / width))

    return fn
