"""Metric-space primitives.

A :class:`MetricStructure` bundles a distance function with a reference point
for boundedness checks.  On top of that, this module builds the two derived
metrics the rest of the library relies on:

* :func:`point_removal_metric` re-metrizes a space with one point deleted so
  that sequences approaching the deleted point escape every bounded set, and
* :func:`hilbert_cube_metric` metrizes the slice of [0,1]-valued sequences
  with positive first coordinate, making first coordinates of bounded sets
  stay away from zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

Point = Any


@dataclass(frozen=True)
class MetricStructure:
    """A distance function plus the reference point used for boundedness.

    ``dist`` must satisfy the metric axioms on the points it is used with;
    :func:`sample_metric_axioms` spot-checks them.  ``label`` names the space:
    measures are compared only when their spaces carry the same label, so it
    must tell different spaces apart.  Instances are immutable and safe to
    share between threads.

    ``dist`` may carry a batched form as its attribute ``dist.many(points, i,
    j)``: the float array of ``dist(points[i[k]], points[j[k]])`` over k, equal
    to the scalar values bit for bit, raising the ValueError ``dist`` raises
    when a bad point is queried.  The built-in metrics carry one.
    :func:`distances` is the one place that looks for it; a ``dist`` without
    one, such as a function wrapped around a built-in ``dist``, is called once
    per pair instead.
    """

    dist: Callable[[Point, Point], float]
    reference_point: Point
    label: str


def distances(space: MetricStructure, points: Sequence[Point], i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The distances dist(points[i[k]], points[j[k]]) as one float array.

    One call of ``space.dist.many`` when the distance function has that
    batched form, else one ``space.dist`` call per pair, in the order of k.
    """
    many = getattr(space.dist, "many", None)
    if many is not None:
        return many(points, i, j)
    return np.array([space.dist(points[a], points[b]) for a, b in zip(i.tolist(), j.tolist())], dtype=float)


def _queried(points: Sequence[Point], i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, list]:
    """The ascending indices of the points that some pair (i[k], j[k]) queries, and those points.

    A batched form converts and checks only these, so a bad point that no
    pair queries raises no more than it does under the per-pair loop.
    """
    used = np.zeros(len(points), dtype=bool)
    used[i] = True
    used[j] = True
    q = np.flatnonzero(used)
    return q, [points[k] for k in q.tolist()]


def _sorted_distinct(*parts) -> np.ndarray:
    """Sorted distinct values of the concatenated 1-d float parts, as np.unique gives them.

    Sorts and keeps the first of each run of equal values, which is what
    np.unique does for floats, minus its masked-array check: plain np.unique
    calls np.ma.is_masked, which imports numpy.ma (about 11 ms) on its first
    call in a process.
    """
    a = np.concatenate(parts)
    a.sort()
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


_BALL_SLACK = 1e-12  # absolute rounding allowance on the ball radius


@dataclass(frozen=True)
class BoundedSetWitness:
    """Closed-ball certificate: a point belongs iff dist(center, x) <= radius."""

    radius: float
    center: Point

    def contains(self, space: MetricStructure, x: Point) -> bool:
        return space.dist(self.center, x) <= self.radius + _BALL_SLACK

    def contains_all(self, space: MetricStructure, points: Sequence[Point]) -> bool:
        """Whether ``contains`` holds at every point, from one :func:`distances` call from the centre."""
        n = len(points)
        d = distances(space, [self.center, *points], np.zeros(n, dtype=np.intp), np.arange(1, n + 1))
        return bool(np.all(d <= self.radius + _BALL_SLACK))


@dataclass(frozen=True)
class MetricAxiomReport:
    """Worst violations found by :func:`sample_metric_axioms`."""

    identity: float
    symmetry: float
    triangle: float
    tol: float

    @property
    def ok(self) -> bool:
        return all(v <= self.tol for v in (self.identity, self.symmetry, self.triangle))  # NaN fails


def real_line() -> MetricStructure:
    """The usual |x - y| metric on the reals; reference 0."""

    def dist(x: Point, y: Point) -> float:
        return abs(float(x) - float(y))

    def many(points, i, j):  # float() of every point, queried or not: any number is a point of R
        x = np.fromiter(map(float, points), float, len(points))
        return np.abs(x[i] - x[j])

    dist.many = many
    return MetricStructure(dist, 0.0, "R")


def sup_norm_space(dim: int) -> MetricStructure:
    """R^dim with the max-norm distance; reference the origin.

    A point is a flat vector of dim coordinates; in R^1 a scalar is one too.
    Any other shape raises ValueError naming it, where numpy would broadcast
    it against the other point.  The maximum is taken on Python floats: on a
    few coordinates that is about three times faster than numpy reductions,
    and bit-identical.  The batched form keeps Python's order, replacing the
    running maximum only where a later coordinate is greater, so that a NaN
    coordinate gives the same result as in ``dist``.
    """
    if dim < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    shapes = ((dim,), ()) if dim == 1 else ((dim,),)  # the shapes coords accepts

    def coords(p: Point) -> np.ndarray:
        a = np.asarray(p, dtype=float)
        if a.ndim > 1 or a.size != dim:
            raise ValueError(f"a point of R^{dim} has {dim} coordinates, got one of shape {a.shape}")
        return a.reshape(dim)

    def dist(x: Point, y: Point) -> float:
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if x.shape not in shapes or y.shape not in shapes:  # a point to refuse: coords raises
            x, y = coords(x), coords(y)
        return max(map(abs, (x - y).reshape(dim).tolist()))

    def many(points, i, j):
        X = np.zeros((dim, len(points)))  # one row per coordinate
        q, pts = _queried(points, i, j)
        X[:, q] = np.reshape([coords(p) for p in pts], (-1, dim)).T
        out = np.abs(X[0, i] - X[0, j])
        for row in X[1:]:
            d = np.abs(row[i] - row[j])
            np.copyto(out, d, where=d > out)
        return out

    dist.many = many
    return MetricStructure(dist, np.zeros(dim), f"R^{dim}-sup")


def point_removal_metric(base: MetricStructure, removed: Point, reference_point: Point) -> MetricStructure:
    """Send one point of ``base`` infinitely far away.

    The returned metric on the punctured space is

        d'(y, z) = d(y, z) + |d(removed, y)^-1 - d(removed, z)^-1|,

    topologically equivalent to ``d`` away from ``removed`` while making every
    sequence that d-converges to ``removed`` leave each d'-ball.  Evaluating at
    the removed point itself raises.

    ``reference_point`` must be a point of the punctured space: one at the
    removed point raises.  The label names the removed point, so measures on
    spaces punctured at different points are not compared.
    """
    if base.dist(removed, reference_point) == 0.0:
        raise ValueError("reference_point lies at the removed point")

    def dist(y: Point, z: Point) -> float:
        dy = base.dist(removed, y)
        dz = base.dist(removed, z)
        if dy == 0.0 or dz == 0.0:
            raise ValueError("removed point queried")
        return base.dist(y, z) + abs(1.0 / dy - 1.0 / dz)

    def many(points, i, j):
        q, pts = _queried(points, i, j)
        dr = distances(base, [removed, *pts], np.zeros(q.size, dtype=np.intp), np.arange(1, q.size + 1))
        if np.any(dr == 0.0):
            raise ValueError("removed point queried")
        inv = np.zeros(len(points))  # 1 / d(removed, p), once per queried point
        inv[q] = 1.0 / dr
        return distances(base, points, i, j) + np.abs(inv[i] - inv[j])

    dist.many = many
    return MetricStructure(dist, reference_point, f"{base.label} minus {removed!r}")


def hilbert_cube_metric() -> MetricStructure:
    """Metric on finitely supported [0,1]-sequences with positive first coordinate.

    r(x, y) = |1/x_1 - 1/y_1| + sum_{n>=1} 2^-n (|x_n - y_n| ∧ 1).

    Points are tuples; trailing zeros are implicit, so the series reduces to a
    finite sum plus an exactly-zero tail.  Bounded sets have first coordinates
    bounded away from zero.  Querying a point with first coordinate zero (or a
    missing first coordinate) raises.
    """

    def dist(x: Sequence[float], y: Sequence[float]) -> float:
        x1 = x[0] if len(x) else 0.0
        y1 = y[0] if len(y) else 0.0
        if x1 <= 0.0 or y1 <= 0.0:
            raise ValueError("not in H_delta domain")
        total = abs(1.0 / x1 - 1.0 / y1)
        half = 0.5
        for n in range(max(len(x), len(y))):
            xn = x[n] if n < len(x) else 0.0
            yn = y[n] if n < len(y) else 0.0
            total += half * min(abs(xn - yn), 1.0)
            half *= 0.5
        return total

    def many(points, i, j):
        q, pts = _queried(points, i, j)
        X = np.zeros((max(1, max(map(len, pts), default=0)), len(points)))  # one row per coordinate
        for k, p in zip(q.tolist(), pts):
            X[: len(p), k] = p
        if np.any((X[0, i] <= 0.0) | (X[0, j] <= 0.0)):
            raise ValueError("not in H_delta domain")
        total = np.abs(1.0 / X[0, i] - 1.0 / X[0, j])
        half = 0.5
        for row in X:  # past both points' lengths the term adds exactly +0.0
            total += half * np.minimum(np.abs(row[i] - row[j]), 1.0)
            half *= 0.5
        return total

    dist.many = many
    return MetricStructure(dist, (1.0,), "hilbert-cube")


def sample_metric_axioms(
    space: MetricStructure,
    points: Sequence[Point],
    n_triples: int,
    rng: np.random.Generator,
    tol: float = 1e-12,
) -> MetricAxiomReport:
    """Spot-check identity, symmetry, triangle inequality on random triples.

    Returns the worst observed violation of each axiom; a verdict of ``ok``
    means no counterexample was found at tolerance ``tol``, not a proof.
    Each triple (x, y, z) needs d(x, y), d(x, x), d(y, x), d(x, z) and
    d(y, z); every distinct ordered pair among them is evaluated once, all in
    one :func:`distances` call, and d(x, y) apart from d(y, x), so that the
    symmetry check compares two evaluations.  A distance that is not finite
    raises ValueError naming its index pair.
    """
    pts = list(points)
    n = len(pts)
    if n < 2:
        raise ValueError("need at least two sample points")
    i, j, k = rng.integers(0, n, size=(n_triples, 3)).T
    # ordered pairs per triple: (x, y), (x, x), (y, x), (x, z), (y, z)
    codes = np.stack([i * n + j, i * n + i, j * n + i, i * n + k, j * n + k], axis=1)
    pairs, inverse = np.unique(codes.ravel(), return_inverse=True)
    dists = distances(space, pts, *np.divmod(pairs, n))
    bad = np.flatnonzero(~np.isfinite(dists))
    if bad.size:
        a, b = divmod(int(pairs[bad[0]]), n)
        raise ValueError(f"non-finite distance {dists[bad[0]]} between points {a} and {b}")
    dxy, dxx, dyx, dxz, dyz = dists[inverse].reshape(n_triples, 5).T
    worst = np.stack([np.abs(dxx), np.abs(dxy - dyx), dxz - dxy - dyz]).max(axis=1, initial=0.0)
    # Python's max keeps +0.0 where numpy may return -0.0
    return MetricAxiomReport(*(max(0.0, float(w)) for w in worst), tol)
