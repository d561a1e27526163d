"""Mass-fragmentation sequences and their power-sum family.

A fragmentation state is a nonincreasing sequence in (0, 1] with total mass
at most 1.  Embedded as a point measure on (0, 1] carrying the |1/x - 1/y|
metric, pointwise convergence of states matches weak#-convergence of their
images as long as mass does not leak toward 0.  The power sums
G_p(s) = sum s_i^p are the integrals of x^p against the embedding, so
:func:`power_family` is an ordinary ``FunctionFamily`` on
:func:`fragment_space` and the convergence checks run through
``weak_sharp_report``.  On mass-1 states (``is_proper``) power-sum and
pointwise convergence agree; :func:`topology_equivalence_check_s1` compares
them.  G_1 is the canonical discontinuity witness: the states (1/n, ..., 1/n)
with n blocks converge pointwise to the zero state while G_1 stays pinned at 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .algebra import FunctionFamily, TestFunction
from .measures import AtomicMeasure, ConvergenceReport, weak_sharp_report
from .metric_core import MetricStructure, _require_int

MASS_TOL = 1e-12


def fragment_space() -> MetricStructure:
    """(0, 1] with d(x, y) = |1/x - 1/y|; bounded sets stay away from 0."""
    return MetricStructure(
        lambda x, y: abs(1.0 / float(x) - 1.0 / float(y)), 1.0, "(0,1]-inverse"
    )


@dataclass(frozen=True)
class FragmentationSequence:
    """Finite nonincreasing sequence in (0, 1], total mass <= 1; zeros trimmed."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        while vals and vals[-1] == 0.0:
            vals = vals[:-1]
        object.__setattr__(self, "values", vals)
        for a, b in zip(vals, vals[1:]):
            if b > a:
                raise ValueError("sequence must be nonincreasing")
        if not all(0.0 < v <= 1.0 + MASS_TOL for v in vals):
            raise ValueError("entries must lie in (0, 1]")
        if self.mass > 1.0 + MASS_TOL:
            raise ValueError("total mass must not exceed 1")

    @property
    def mass(self) -> float:
        return math.fsum(self.values)

    @property
    def is_proper(self) -> bool:
        return abs(self.mass - 1.0) <= MASS_TOL

    def coordinate(self, i: int) -> float:
        return self.values[i] if i < len(self.values) else 0.0

    def __len__(self) -> int:
        return len(self.values)


def phi(s: FragmentationSequence) -> AtomicMeasure:
    """Point-measure embedding: one atom per distinct value, weighted by multiplicity."""
    atoms: dict[float, int] = {}
    for v in s.values:
        atoms[v] = atoms.get(v, 0) + 1
    return AtomicMeasure.from_atoms(fragment_space(), [(v, float(k)) for v, k in atoms.items()])


def phi_inverse(mu: AtomicMeasure) -> FragmentationSequence:
    """Invert the embedding: expand integer weights, sort nonincreasing.

    Raises for non-integer weights, atoms outside (0, 1], or total mass above
    1, since such measures are not embeddings of any fragmentation state.
    """
    expanded: list[float] = []
    for p, w in mu.atoms:
        k = round(w)
        if abs(w - k) > 1e-9 or k < 1:
            raise ValueError(f"not in Phi(S_down): non-integer weight {w}")
        x = float(p)
        if not 0.0 < x <= 1.0:
            raise ValueError(f"not in Phi(S_down): atom {x} outside (0, 1]")
        expanded.extend([x] * k)
    if math.fsum(expanded) > 1.0 + MASS_TOL:
        raise ValueError("not in Phi(S_down): total mass exceeds 1")
    return FragmentationSequence(tuple(sorted(expanded, reverse=True)))


def g_p(s: FragmentationSequence, p: int) -> float:
    """Power sum sum_i s_i^p, correctly rounded; p must be an integer >= 1."""
    p = _require_int("p", p, 1)
    return math.fsum(v**p for v in s.values)


def power_family(max_p: int) -> FunctionFamily:
    """G_p: x -> x^p on (0, 1] for p = 1..max_p, |G_p| <= 1; G_p integrates to g_p(s) against phi(s)."""
    return FunctionFamily(
        tuple(TestFunction(f"G_{p}", lambda x, _p=p: x**_p) for p in range(1, max_p + 1)),
        fragment_space(),
    )


def _pointwise_gap(a: FragmentationSequence, b: FragmentationSequence) -> float:
    n = max(len(a), len(b))
    if n == 0:
        return 0.0
    return max(abs(a.coordinate(i) - b.coordinate(i)) for i in range(n))


def topology_equivalence_check_s1(
    seq: Sequence[FragmentationSequence],
    limit: FragmentationSequence,
    max_p: int,
    tol: float,
) -> tuple[ConvergenceReport, bool]:
    """Power-sum and pointwise convergence of mass-1 states, to be compared.

    Returns ``weak_sharp_report``'s report of phi(seq) against phi(limit) over
    ``power_family(max_p)`` and the pointwise verdict: the last sup-gap between
    coordinates is below ``tol``.  On mass-1 states the two generate the same
    topology, so the claim is ``report.converged == pointwise_converged``.
    States whose mass is not 1 are rejected as improper.
    """
    for s in list(seq) + [limit]:
        if not s.is_proper:
            raise ValueError("improper sequence: total mass must equal 1")
    report = weak_sharp_report([phi(s) for s in seq], phi(limit), power_family(max_p), tol)
    return report, bool(seq) and _pointwise_gap(seq[-1], limit) < tol


def block_uniform_state(n: int) -> FragmentationSequence:
    """The discontinuity witness: n blocks of mass 1/n, the leading block
    nudged once by the residual 1 - fsum so the float masses sum to exactly 1
    (for n up to 5000 that residual is never negative, so the state stays
    nonincreasing; a broken order would fail FragmentationSequence's check)."""
    n = _require_int("n", n, 1)
    vals = [1.0 / n] * n
    vals[0] += 1.0 - math.fsum(vals)
    return FragmentationSequence(tuple(vals))
