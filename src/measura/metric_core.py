"""Metric-space primitives.

A :class:`MetricStructure` bundles a distance function with a reference point
for boundedness checks.  On top of that, this module builds the two derived
metrics the rest of the library relies on:

* :func:`point_removal_metric` re-metrizes a space with one point deleted so
  that sequences approaching the deleted point escape every bounded set, and
* :func:`hilbert_cube_metric` metrizes the slice of [0,1]-valued sequences
  with positive first coordinate, making first coordinates of bounded sets
  stay away from zero.

Every command loads this module, so it also holds what the whole package
shares: :class:`NonConvergenceError` and the argument checks
``_require_real``, ``_require_finite`` and ``_require_int``.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

Point = Any


class NonConvergenceError(RuntimeError):
    """A limit schedule or a degree escalation ended without meeting its tolerance."""


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
    to the scalar values bit for bit.  It converts and checks every point it
    is given, raising the ValueError ``dist`` raises on a bad one.  The
    built-in metrics carry one; ``excursion_metric`` is its batched form on
    one pair, so the two agree by construction.  :func:`distances` is the one
    place that looks for it, and gives it only the points some pair queries;
    a ``dist`` without one, such as a function wrapped around a built-in
    ``dist``, is called once per pair instead.  A built-in metric gives NaN,
    in both forms, for a point with a NaN coordinate, and
    :func:`sample_metric_axioms` and ``prohorov_distance`` refuse a
    non-finite distance.
    """

    dist: Callable[[Point, Point], float]
    reference_point: Point
    label: str


def distances(space: MetricStructure, points: Sequence[Point], i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The distances dist(points[i[k]], points[j[k]]) as one float array.

    One call of ``space.dist.many`` when the distance function has that
    batched form, else one ``space.dist`` call per pair, in the order of k.
    The batched form is given only the points some pair queries, in
    ascending order and with i and j renumbered to match, so a bad point
    that no pair queries raises no more than under the per-pair loop.  No
    pairs give an empty array.
    """
    many = getattr(space.dist, "many", None)
    if many is None or len(i) == 0:
        return np.array([space.dist(points[a], points[b]) for a, b in zip(i.tolist(), j.tolist())], dtype=float)
    pos = np.zeros(len(points), dtype=np.intp)
    pos[i] = pos[j] = 1
    q = np.flatnonzero(pos)
    pos[q] = np.arange(q.size)  # a queried point's index among the queried ones
    return many([points[k] for k in q.tolist()], pos[i], pos[j])


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


def _require_real(name: str, v) -> None:
    """Raise ValueError naming v if it is not a real number (a str, a bool, a complex), before any comparison."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {v!r}")


def _require_finite(*, nonnegative: bool = False, **values: float) -> None:
    """Raise ValueError naming the first of ``values`` that is not finite and positive (or nonnegative).

    A value that is not a real number (a str, a bool, a complex) is refused by name before any comparison.
    """
    for name, v in values.items():
        _require_real(name, v)
        if not (0.0 <= v if nonnegative else 0.0 < v) or v == math.inf:  # NaN fails the first test
            raise ValueError(f"{name} must be finite and {'nonnegative' if nonnegative else 'positive'}, got {v}")


def _require_int(name: str, v, least: int) -> int:
    """v as an int of at least ``least`` (numpy integers too, but no bool, float or str), else ValueError naming it."""
    try:
        if isinstance(v, bool):  # operator.index takes True as 1
            raise TypeError
        v = operator.index(v)
    except TypeError:
        raise ValueError(f"{name} must be an int, got {v!r}") from None
    if v < least:
        raise ValueError(f"{name} must be at least {least}, got {v}")
    return v


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

    def many(points, i, j):
        x = np.fromiter(map(float, points), float, len(points))
        return np.abs(x[i] - x[j])

    dist.many = many
    return MetricStructure(dist, 0.0, "R")


def sup_norm_space(dim: int) -> MetricStructure:
    """R^dim with the max-norm distance; reference the origin.

    A point is a flat vector of dim coordinates; in R^1 a scalar is one too.
    Any other shape raises ValueError naming it, where numpy would broadcast
    it against the other point.  A NaN coordinate gives a NaN distance.
    """
    dim = _require_int("dim", dim, 1)

    def coords(p: Point) -> np.ndarray:
        a = np.asarray(p, dtype=float)
        if a.ndim > 1 or a.size != dim:
            raise ValueError(f"a point of R^{dim} has {dim} coordinates, got one of shape {a.shape}")
        return a.reshape(dim)

    def dist(x: Point, y: Point) -> float:
        return float(np.max(np.abs(coords(x) - coords(y))))

    def many(points, i, j):
        X = np.reshape([coords(p) for p in points], (-1, dim)).T  # one row per coordinate
        out = np.abs(X[0, i] - X[0, j])
        for row in X[1:]:
            np.maximum(out, np.abs(row[i] - row[j]), out=out)
        return out

    dist.many = many
    return MetricStructure(dist, np.zeros(dim), f"R^{dim}-sup")


def _label_value(p: Point) -> Any:
    """A point's coordinates as a tuple of Python floats, whose repr is exact; p itself if it has none."""
    try:
        return tuple(np.asarray(p, dtype=float).ravel().tolist())
    except (TypeError, ValueError):
        return p


def point_removal_metric(base: MetricStructure, removed: Point, reference_point: Point) -> MetricStructure:
    """Send one point of ``base`` infinitely far away.

    The returned metric on the punctured space is

        d'(y, z) = d(y, z) + |d(removed, y)^-1 - d(removed, z)^-1|,

    topologically equivalent to ``d`` away from ``removed`` while making every
    sequence that d-converges to ``removed`` leave each d'-ball.  Evaluating at
    the removed point itself raises.

    ``reference_point`` must be a point of the punctured space: one at the
    removed point raises.  The label names the removed point and the
    reference point by their float coordinates, exact and whatever their
    numeric type (a point that has none, such as a string, by its repr), so
    measures on spaces punctured at different points, or bounded from
    different reference points, are not compared.
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
        n = len(points)
        dr = distances(base, [removed, *points], np.zeros(n, dtype=np.intp), np.arange(1, n + 1))
        if np.any(dr == 0.0):
            raise ValueError("removed point queried")
        inv = 1.0 / dr
        return distances(base, points, i, j) + np.abs(inv[i] - inv[j])

    dist.many = many
    label = f"{base.label} minus {_label_value(removed)!r}, reference {_label_value(reference_point)!r}"
    return MetricStructure(dist, reference_point, label)


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
        X = np.zeros((max(1, max(map(len, points), default=0)), len(points)))  # one row per coordinate
        for k, p in enumerate(points):
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
    raises ValueError naming its index pair.  ``n_triples`` must be an int of
    at least 0; no triples report no violation.
    """
    n_triples = _require_int("n_triples", n_triples, 0)
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
