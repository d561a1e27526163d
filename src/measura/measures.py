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
:func:`prohorov_distance_bruteforce`, enumerates the unions of atoms at each
distance threshold and is kept as the exact oracle for small measures.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .metric_core import MetricStructure, Point, _require_real, _sorted_distinct, distances

if TYPE_CHECKING:  # an annotation only: prohorov-oracle runs without loading algebra
    from .algebra import FunctionFamily

# prohorov_distance_bruteforce enumerates all 2^n unions of the n support atoms
SUBSET_LIMIT = 14


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite list of (point, positive weight) atoms on a metric structure.

    A weight that is not a real number (a str, a bool) is refused with a
    ValueError naming the atom's index, here and in ``from_atoms``, whose
    ``float`` would otherwise take "1.5" and True.
    """

    atoms: tuple[tuple[Point, float], ...]
    space: MetricStructure

    def __post_init__(self):
        for i, (_, w) in enumerate(self.atoms):
            _require_real(f"atom {i} weight", w)
            if not (w > 0.0) or not math.isfinite(w):
                raise ValueError(f"atom weights must be positive and finite, got {w}")

    @classmethod
    def from_atoms(cls, space: MetricStructure, atoms: Iterable[tuple[Point, float]]) -> "AtomicMeasure":
        atoms = tuple(atoms)
        for i, (_, w) in enumerate(atoms):
            _require_real(f"atom {i} weight", w)  # before float(), which takes "1.5" and True
        return cls(tuple((p, float(w)) for p, w in atoms), space)

    @classmethod
    def dirac(cls, space: MetricStructure, point: Point, weight: float = 1.0) -> "AtomicMeasure":
        _require_real("atom 0 weight", weight)
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
    started from a greedy flow along those edges and kept once, as
    ``inn[j][i]``, in the order the residual search reads it.  Both defects
    are read off the minimum cut of the last residual search instead of as
    total mass minus flow.  A, the nu1 atoms it reaches, is the worst set one
    way, and its enlargement is N, the nu2 atoms it reaches.  The nu2 atoms
    outside N are the worst set the other way round: their neighbours all lie
    outside A, and N is saturated and fed from A only, so the flow is nu2(N)
    plus the nu1 mass outside A.  Each mass difference is one fsum, so equal
    measures give exactly 0.
    """
    adj1 = [np.flatnonzero(row).tolist() for row in near]
    rem1, rem2 = list(w1), list(w2)
    inn = [{} for _ in w2]  # inn[j][i] = flow on i -> j, only where positive
    for i, js in enumerate(adj1):  # greedy start: saves most searches at hundreds of atoms
        for j in js:
            if rem1[i] <= 0.0:
                break
            if rem2[j] > 0.0:
                f = min(rem1[i], rem2[j])
                rem1[i] -= f
                rem2[j] -= f
                inn[j][i] = f
    while True:
        p1, p2, end = _residual_search(rem1, adj1, inn, rem2)
        if end < 0:
            break
        f, j = rem2[end], end
        while (jb := p1[p2[j]]) >= 0:
            f = min(f, inn[jb][p2[j]])
            j = jb
        f = min(f, rem1[p2[j]])
        rem2[end] -= f
        j = end
        while True:
            i = p2[j]
            inn[j][i] = inn[j].get(i, 0.0) + f
            if (jb := p1[i]) < 0:
                rem1[i] -= f
                break
            inn[jb][i] -= f
            if not inn[jb][i] > 0.0:
                del inn[jb][i]
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
    and an atom of nu2, so only those n1 * n2 distances are computed, in one
    :func:`distances` call; a non-finite one (NaN or inf) raises ValueError
    naming its atom pair.  On [t_k, t_{k+1}) the enlargements are fixed, so
    the binding constraint is the defect D_k of :func:`_strassen_defect`
    (Strassen 1965: total mass minus a bipartite max flow, read off a minimum
    cut) and the candidate is max(t_k, D_k).  D_k does not increase with k,
    so "the candidate lies below t_{k+1}" is monotone and the first k where
    it holds, which gives the distance, is found by ``bisect`` over cached
    candidates: one max flow per probed threshold, no cap on the atom count.  The last threshold needs
    no test; with two empty measures it is the only one, t = [0], and its
    defect is 0.  The thresholds come from ``_sorted_distinct``, not
    np.unique, whose masked-array check would import numpy.ma on the first
    call in every process.
    """
    space = _require_same_space(nu1.space, nu2.space)
    w1, w2 = [w for _, w in nu1.atoms], [w for _, w in nu2.atoms]
    i, j = np.nonzero(np.ones((len(w1), len(w2)), dtype=bool))  # every atom pair, row by row
    cross = distances(space, [p for p, _ in nu1.atoms + nu2.atoms], i, j + len(w1)).reshape(len(w1), len(w2))
    if not np.isfinite(cross).all():
        i, j = np.argwhere(~np.isfinite(cross))[0]
        raise ValueError(f"non-finite distance {cross[i, j]} between atom {i} of nu1 and atom {j} of nu2")
    t = _sorted_distinct(cross.ravel(), [0.0]).tolist()

    @functools.cache
    def candidate(k: int) -> float:
        return max(t[k], _strassen_defect(w1, w2, cross <= t[k]))

    return candidate(bisect.bisect_left(range(len(t) - 1), True, key=lambda k: candidate(k) < t[k + 1]))


def prohorov_distance_bruteforce(nu1: AtomicMeasure, nu2: AtomicMeasure) -> float:
    """Reference oracle: the exact distance, from the defects of all unions of atoms.

    The thresholds t_k are 0 and the distinct distances between any two atoms
    of either measure, sorted, with inf appended.  D_k, the largest of 0,
    nu1(A) - nu2(A^t_k) and nu2(A) - nu1(A^t_k) over the unions A of support
    atoms, holds on [t_k, t_{k+1}), so the distance is min_k max(t_k, D_k).
    Union masses are summed once, in atom order, so no union outweighs a
    superset: D does not increase with k, also in floats, and d(nu, nu) is 0.
    The first k with D_k <= t_k (binary search; inf always qualifies) gives
    the distance min(D_{k-1}, t_k).  Per probe the enlargement of every union
    is a bitmask built by doubling.  A non-finite distance (NaN or inf)
    between any two atoms, numbered nu1's first, raises ValueError.
    Independent of :func:`prohorov_distance` on purpose: no cross block, no
    max flow, and one scalar ``space.dist`` call per pair, so that it also
    checks the batched distances ``prohorov_distance`` uses, except on the
    excursion space, whose scalar distance is its batched form on one pair
    (the tests check that form against an independent reference).
    """
    space = _require_same_space(nu1.space, nu2.space)
    pts = [p for p, _ in nu1.atoms] + [p for p, _ in nu2.atoms]
    n = len(pts)
    if n > SUBSET_LIMIT:
        raise ValueError(f"union support of {n} atoms exceeds the exact-subset limit {SUBSET_LIMIT}")
    w1, w2 = np.zeros((2, n))
    w1[: len(nu1.atoms)] = [w for _, w in nu1.atoms]
    w2[len(nu1.atoms):] = [w for _, w in nu2.atoms]
    dmat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dmat[i, j] = dmat[j, i] = space.dist(pts[i], pts[j])
    if not np.isfinite(dmat).all():
        i, j = np.argwhere(~np.isfinite(dmat))[0]
        raise ValueError(f"non-finite distance {dmat[i, j]} between atoms {i} and {j} of the union support")
    m1, m2 = m = np.zeros((2, 2**n))  # mass of every union, indexed by its bitmask
    for k in range(n):
        np.add(m[:, : 1 << k], [[w1[k]], [w2[k]]], out=m[:, 1 << k: 2 << k])
    pow2 = 1 << np.arange(n, dtype=np.int64)
    enl = np.zeros(2**n, dtype=np.int64)  # bitmask of each union's eps-enlargement
    t = _sorted_distinct(dmat[np.triu_indices(n, 1)], [0.0, math.inf]).tolist()

    @functools.cache
    def defect(k: int) -> float:
        near = (dmat <= t[k]) @ pow2  # near[i]: bitmask of the atoms within t[k] of atom i
        for i in range(n):
            np.bitwise_or(enl[: 1 << i], near[i], out=enl[1 << i: 2 << i])
        return max(0.0, float(np.max(m1 - m2[enl])), float(np.max(m2 - m1[enl])))

    k = bisect.bisect_left(range(len(t) - 1), True, key=lambda k: defect(k) <= t[k])
    return min(defect(k - 1), t[k]) if k else 0.0


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
