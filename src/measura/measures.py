"""Boundedly finite measures as weighted atom lists.

Everything here is exact finite arithmetic: integration is a weighted sum,
and the Prokhorov distance between atomic measures is computed exactly.  For
atomic measures the defining sets may be restricted to unions of support
atoms, and Strassen's theorem (Ann. Math. Statist. 36, 1965) turns the worst
such set at a threshold t into a bipartite max-flow problem:
``sup_A nu1(A) - nu2(A^t) = nu1(E) - F(t)``, where ``F(t)`` is the max flow
from the atoms of nu1 (capacities their weights) to the atoms of nu2 along
the pairs at distance at most t.  One minimum cut gives the maximising set
in both directions: the atoms of nu1 on its source side, and the atoms of nu2
on its sink side.  A deliberately independent brute-force implementation,
:func:`prohorov_distance_bruteforce`, enumerates the unions of atoms and is
kept as the reference oracle for small measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .algebra import FunctionFamily
from .metric_core import MetricStructure, Point

# prohorov_distance_bruteforce enumerates all 2^n unions of the n support atoms
SUBSET_LIMIT = 14
_ORACLE_TOL = 1e-7  # width of the oracle's final bisection bracket


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
        return math.fsum(w for _, w in self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-function integral gaps |∫f dμ_n - ∫f dμ| and a tolerance verdict."""

    member_gaps: tuple[tuple[str, tuple[float, ...]], ...]
    converged: bool


def integrate(mu: AtomicMeasure, f: Callable[[Point], complex]) -> complex:
    """Sum of weight * f(atom); linear in f, monotone for nonnegative real f.

    The real and imaginary parts are each one correctly rounded fsum, so the
    integral does not depend on the order of the atoms.
    """
    terms = [w * complex(f(p)) for p, w in mu.atoms]
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


def _require_same_space(first: MetricStructure, *others: MetricStructure) -> MetricStructure:
    for other in others:
        if other.label != first.label:
            raise ValueError(f"mismatched base spaces: {first.label!r} vs {other.label!r}")
    return first


def _residual_search(rem1, adj1, inn, rem2):
    """Breadth-first search of the residual flow graph from the unsaturated atoms of nu1.

    From an atom i of nu1 every neighbour j in ``adj1[i]`` is reachable
    (uncapacitated edge); from j, every atom i' that sends j positive flow
    (``inn[j]``).  Returns the parent maps of the reached atoms of both
    measures (-1 marks a start) and the first reached j with ``rem2[j] > 0``,
    the end of an augmenting path, or -1 when there is none.
    """
    p1 = {i: -1 for i, r in enumerate(rem1) if r > 0.0}
    p2 = {}
    queue = list(p1)
    for i in queue:
        for j in adj1[i]:
            if j not in p2:
                p2[j] = i
                if rem2[j] > 0.0:
                    return p1, p2, j
                for i2 in inn[j]:
                    if i2 not in p1:
                        p1[i2] = j
                        queue.append(i2)
    return p1, p2, -1


def _strassen_defect(w1: list[float], w2: list[float], near: np.ndarray) -> float:
    """max(0, sup_A nu1(A) - nu2(A^t), sup_A nu2(A) - nu1(A^t)) at one threshold t.

    ``near[i, j]`` says whether atom i of nu1 and atom j of nu2 lie within t.
    Edmonds-Karp max flow from source -> i (capacity w1[i]) -> j -> sink
    (capacity w2[j]), with uncapacitated edges i -> j where near[i, j],
    started from a greedy flow along those edges.  Both defects are read off
    the minimum cut of the last residual search instead of as total mass
    minus flow.  A, the nu1 atoms it reaches, is the worst set one way, and
    its enlargement is N, the nu2 atoms it reaches.  The nu2 atoms outside N
    are the worst set the other way round: their neighbours all lie outside
    A, and N is saturated and fed from A only, so the flow is nu2(N) plus
    the nu1 mass outside A.  Each mass difference is one fsum, so equal
    measures give exactly 0.
    """
    adj1 = [np.flatnonzero(row).tolist() for row in near]
    rem1, rem2 = list(w1), list(w2)
    out = [{} for _ in w1]  # out[i][j] = flow on i -> j, only where positive
    inn = [{} for _ in w2]  # inn[j][i] = the same flow, indexed from j
    for i, js in enumerate(adj1):  # greedy start: saves most searches at hundreds of atoms
        for j in js:
            if rem1[i] <= 0.0:
                break
            if rem2[j] > 0.0:
                f = min(rem1[i], rem2[j])
                rem1[i] -= f
                rem2[j] -= f
                out[i][j] = inn[j][i] = f
    while True:
        p1, p2, end = _residual_search(rem1, adj1, inn, rem2)
        if end < 0:
            break
        f, j = rem2[end], end
        while (jb := p1[p2[j]]) >= 0:
            f = min(f, out[p2[j]][jb])
            j = jb
        f = min(f, rem1[p2[j]])
        rem2[end] -= f
        j = end
        while True:
            i = p2[j]
            out[i][j] = inn[j][i] = out[i].get(j, 0.0) + f
            jb = p1[i]
            if jb < 0:
                rem1[i] -= f
                break
            left = out[i][jb] - f
            if left > 0.0:
                out[i][jb] = inn[jb][i] = left
            else:
                del out[i][jb], inn[jb][i]
            j = jb
    return max(
        0.0,
        math.fsum([w1[i] for i in p1] + [-w2[j] for j in p2]),
        math.fsum([w for j, w in enumerate(w2) if j not in p2] + [-w for i, w in enumerate(w1) if i not in p1]),
    )


def prohorov_distance(nu1: AtomicMeasure, nu2: AtomicMeasure) -> float:
    """Prokhorov distance between finite atomic measures, computed exactly.

    inf{eps > 0 : nu1(A) <= nu2(A^eps) + eps and vice versa for all A}, where
    A ranges over unions of support atoms and A^eps is the closed enlargement.
    The thresholds t_k are 0 and the sorted distances between an atom of nu1
    and an atom of nu2, so only those n1 * n2 distances are computed.  On
    [t_k, t_{k+1}) the enlargements are fixed, so the binding constraint is
    the defect D_k of :func:`_strassen_defect` (Strassen 1965: total mass
    minus a bipartite max flow, read off a minimum cut) and the candidate is
    max(t_k, D_k).  D_k does not increase with k, so "the candidate lies
    below t_{k+1}" is monotone and the first k where it holds, which gives
    the distance, is found by binary search: one max flow per probe, no cap
    on the atom count.
    """
    space = _require_same_space(nu1.space, nu2.space)
    if not nu1.atoms and not nu2.atoms:
        return 0.0
    w1, w2 = [w for _, w in nu1.atoms], [w for _, w in nu2.atoms]
    cross = np.array([[space.dist(p, q) for q, _ in nu2.atoms] for p, _ in nu1.atoms])
    cross = cross.reshape(len(w1), len(w2))
    t = np.unique(np.append(cross, 0.0)).tolist()

    def candidate(k: int) -> float:
        return max(t[k], _strassen_defect(w1, w2, cross <= t[k]))

    lo, hi = 0, len(t) - 1  # the last threshold always qualifies
    best = None
    while lo < hi:
        k = (lo + hi) // 2
        eps = candidate(k)
        if eps < t[k + 1]:
            hi, best = k, eps
        else:
            lo = k + 1
    return candidate(hi) if best is None else best


def prohorov_distance_bruteforce(nu1: AtomicMeasure, nu2: AtomicMeasure) -> float:
    """Reference oracle: direct feasibility check per eps, bisected.

    For each eps the two defining inequalities are checked verbatim over all
    unions of support atoms; feasibility is monotone in eps, so bisection
    converges to the infimum, within ``_ORACLE_TOL`` above it.  The mass of
    every union is summed once, in atom order (no union outweighs a superset:
    d(nu, nu) is 0); per eps the enlargement of every union is a bitmask built
    by doubling, and its mass is read from those subset sums.  Kept
    algorithmically independent of :func:`prohorov_distance` on purpose.
    """
    space = _require_same_space(nu1.space, nu2.space)
    pts = [p for p, _ in nu1.atoms] + [p for p, _ in nu2.atoms]
    n = len(pts)
    if n == 0:
        return 0.0
    if n > SUBSET_LIMIT:
        raise ValueError(f"union support of {n} atoms exceeds the exact-subset limit {SUBSET_LIMIT}")
    w1 = np.zeros(n)
    w2 = np.zeros(n)
    w1[: len(nu1.atoms)] = [w for _, w in nu1.atoms]
    w2[len(nu1.atoms):] = [w for _, w in nu2.atoms]
    dmat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dmat[i, j] = dmat[j, i] = space.dist(pts[i], pts[j])
    m1, m2 = m = np.zeros((2, 2**n))  # mass of every union, indexed by its bitmask
    for k in range(n):
        np.add(m[:, : 1 << k], [[w1[k]], [w2[k]]], out=m[:, 1 << k: 2 << k])
    pow2 = 1 << np.arange(n, dtype=np.int64)
    enl = np.zeros(2**n, dtype=np.int64)  # bitmask of each union's eps-enlargement

    def feasible(eps: float) -> bool:
        near = (dmat <= eps) @ pow2  # near[i]: bitmask of the atoms within eps of atom i
        for k in range(n):
            np.bitwise_or(enl[: 1 << k], near[k], out=enl[1 << k: 2 << k])
        return bool(np.all(m1 <= m2[enl] + eps) and np.all(m2 <= m1[enl] + eps))

    if feasible(0.0):
        return 0.0
    lo, hi = 0.0, float(max(w1.sum(), w2.sum(), dmat.max()) + 1.0)
    while hi - lo > _ORACLE_TOL:
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
    does not certify weak#-convergence by itself.  Raises ValueError when
    ``limit`` or a measure of ``seq`` lives on a space other than ``fam.space``.
    """
    _require_same_space(fam.space, limit.space, *(mu.space for mu in seq))
    gaps = []
    for f in fam.members:
        ref = integrate(limit, f)
        gaps.append((f.id, tuple(abs(integrate(mu, f) - ref) for mu in seq)))
    converged = bool(seq) and all(g[-1] < tol for _, g in gaps)
    return ConvergenceReport(tuple(gaps), converged)
