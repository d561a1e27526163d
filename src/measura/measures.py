"""Boundedly finite measures as weighted atom lists.

Everything here is exact finite arithmetic: integration is a weighted sum,
and the Prokhorov distance between small atomic measures is computed exactly
by restricting the defining sets to unions of support atoms (on which the
infimum is attained for purely atomic measures).  A deliberately independent
brute-force implementation, :func:`prohorov_distance_bruteforce`, is kept as
the reference oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .algebra import FunctionFamily
from .metric_core import MetricStructure, Point

# prohorov_distance scans all 2^n unions of the n support atoms per threshold
SUBSET_LIMIT = 14


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite list of (point, positive weight) atoms on a metric structure."""

    atoms: tuple[tuple[Point, float], ...]
    space: MetricStructure

    def __post_init__(self):
        for p, w in self.atoms:
            if not (w > 0.0) or not math.isfinite(w):
                raise ValueError(f"atom weights must be positive and finite, got {w}")

    @classmethod
    def from_atoms(cls, space: MetricStructure, atoms: Iterable[tuple[Point, float]]) -> "AtomicMeasure":
        return cls(tuple((p, float(w)) for p, w in atoms), space)

    @classmethod
    def dirac(cls, space: MetricStructure, point: Point, weight: float = 1.0) -> "AtomicMeasure":
        return cls(((point, float(weight)),), space)

    @classmethod
    def empty(cls, space: MetricStructure) -> "AtomicMeasure":
        return cls((), space)

    @property
    def total_mass(self) -> float:
        return float(sum(w for _, w in self.atoms))

    def __len__(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-function integral gaps |∫f dμ_n - ∫f dμ| and a tolerance verdict."""

    member_gaps: tuple[tuple[str, tuple[float, ...]], ...]
    tol: float
    converged: bool

    def final_gaps(self) -> dict[str, float]:
        return {fid: gaps[-1] for fid, gaps in self.member_gaps if gaps}


def integrate(mu: AtomicMeasure, f: Callable[[Point], complex]) -> complex:
    """Sum of weight * f(atom); linear in f, monotone for nonnegative real f."""
    return complex(sum(w * complex(f(p)) for p, w in mu.atoms))


def integrates_family(mu: AtomicMeasure, fam: FunctionFamily) -> bool:
    """True iff |f| integrates (= evaluates finitely at every atom) for all members."""
    for f in fam.members:
        for p, _ in mu.atoms:
            try:
                v = abs(f(p))
            except Exception:
                return False
            if not math.isfinite(v):
                return False
    return True


def _require_same_space(nu1: AtomicMeasure, nu2: AtomicMeasure) -> MetricStructure:
    if nu1.space.label != nu2.space.label:
        raise ValueError(
            f"mismatched base spaces: {nu1.space.label!r} vs {nu2.space.label!r}"
        )
    return nu1.space


def _union_support(nu1: AtomicMeasure, nu2: AtomicMeasure):
    space = _require_same_space(nu1, nu2)
    pts = [p for p, _ in nu1.atoms] + [p for p, _ in nu2.atoms]
    n = len(pts)
    w1 = np.zeros(n)
    w2 = np.zeros(n)
    w1[: len(nu1.atoms)] = [w for _, w in nu1.atoms]
    w2[len(nu1.atoms):] = [w for _, w in nu2.atoms]
    dmat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = space.dist(pts[i], pts[j])
            dmat[i, j] = dmat[j, i] = d
    return pts, w1, w2, dmat


def prohorov_distance(nu1: AtomicMeasure, nu2: AtomicMeasure) -> float:
    """Prokhorov distance between finite atomic measures, computed exactly.

    inf{eps > 0 : nu1(A) <= nu2(A^eps) + eps and vice versa for all A}, where
    A ranges over unions of support atoms and A^eps is the closed enlargement.
    The feasibility of eps is monotone and piecewise determined by the sorted
    pairwise-distance thresholds, so the infimum is found by scanning those
    intervals; within each, the binding constraint is a mass difference.
    """
    n = len(nu1.atoms) + len(nu2.atoms)
    if n == 0:
        _require_same_space(nu1, nu2)
        return 0.0
    if n > SUBSET_LIMIT:
        raise ValueError(f"union support of {n} atoms exceeds the exact-subset limit {SUBSET_LIMIT}")
    _, w1, w2, dmat = _union_support(nu1, nu2)

    masks = np.arange(2**n, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(np.int64)
    m1 = bits @ w1
    m2 = bits @ w2

    thresholds = np.unique(dmat)
    best = math.inf
    for ti, t in enumerate(thresholds):
        nb = [int(sum(1 << j for j in range(n) if dmat[i, j] <= t)) for i in range(n)]
        enl = np.zeros(2**n, dtype=np.int64)
        for i in range(n):
            enl = np.where(bits[:, i] == 1, enl | nb[i], enl)
        req = max(0.0, float(np.max(m1 - m2[enl])), float(np.max(m2 - m1[enl])))
        eps_here = max(float(t), req)
        upper = thresholds[ti + 1] if ti + 1 < len(thresholds) else math.inf
        if eps_here < upper:
            best = min(best, eps_here)
    return best


def prohorov_distance_bruteforce(nu1: AtomicMeasure, nu2: AtomicMeasure, tol: float = 1e-7) -> float:
    """Reference oracle: direct feasibility check per eps, bisected.

    For each eps the two defining inequalities are checked verbatim over all
    unions of support atoms; feasibility is monotone in eps, so bisection
    converges to the infimum.  Kept algorithmically independent of
    :func:`prohorov_distance` on purpose.
    """
    n = len(nu1.atoms) + len(nu2.atoms)
    if n == 0:
        _require_same_space(nu1, nu2)
        return 0.0
    _, w1, w2, dmat = _union_support(nu1, nu2)
    masks = np.arange(2**n, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)

    def feasible(eps: float) -> bool:
        near = dmat <= eps
        enlarged = bits @ near.astype(np.int64) > 0
        m1 = bits @ w1
        m2 = bits @ w2
        e1 = enlarged @ w1
        e2 = enlarged @ w2
        return bool(np.all(m1 <= e2 + eps) and np.all(m2 <= e1 + eps))

    if feasible(0.0):
        return 0.0
    lo, hi = 0.0, float(max(w1.sum(), w2.sum(), dmat.max()) + 1.0)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def mf_measure_metric(nu1: AtomicMeasure, nu2: AtomicMeasure) -> float:
    """Prokhorov distance plus |1/total_1 - 1/total_2| on nonzero finite measures."""
    if nu1.total_mass <= 0.0 or nu2.total_mass <= 0.0:
        raise ValueError("not in M_f(E) \\ {0}: zero total mass")
    return prohorov_distance(nu1, nu2) + abs(1.0 / nu1.total_mass - 1.0 / nu2.total_mass)


def finite_measure_space(reference: AtomicMeasure) -> MetricStructure:
    """Metric structure whose points are nonzero finite atomic measures."""
    return MetricStructure(
        mf_measure_metric,
        reference,
        f"M_f({reference.space.label})-prohorov",
    )


def weak_sharp_report(
    seq: Sequence[AtomicMeasure],
    limit: AtomicMeasure,
    fam: FunctionFamily,
    tol: float,
) -> ConvergenceReport:
    """Integral gaps of a measure sequence against a sampled function family.

    The verdict is ``converged`` iff the final gap is below ``tol`` for every
    member.  This tests the hypothesis side of convergence determination; it
    does not certify weak#-convergence by itself.
    """
    gaps = []
    for f in fam.members:
        ref = integrate(limit, f)
        gaps.append((f.id, tuple(abs(integrate(mu, f) - ref) for mu in seq)))
    converged = bool(seq) and all(g[-1] < tol for _, g in gaps)
    return ConvergenceReport(tuple(gaps), tol, converged)
