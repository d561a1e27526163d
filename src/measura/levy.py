"""Levy-Khintchine exponents on R^D and Laplace functionals of random measures.

The characteristic exponent of an infinitely divisible law is evaluated from
its triple (drift b, covariance C, jump measure mu); the recovery routines run
the inverse direction under one limit rule: along a positive increasing
schedule of at least 3 arguments m, the raw estimates are fitted with
a + c * m^-p on the full schedule and on its tail half, and the tail fit is
the limit once the two agree (``_schedule_limit``).  Fits that disagree, and
a schedule on which m^-p overflows, raise NonConvergenceError.  ``recover_C``
uses p = 2, ``recover_b`` and ``recover_b_measure`` use p = 1.

Drift recovery caveat: the limit -(i/m)(Psi(m e_k) + m^2 C_kk / 2) converges
to b_k minus the compensator first moment ∫ x_k 1_{|x|<=1} dmu(x) whenever mu
charges the unit ball (the bounded oscillating part of the integral dies at
rate 1/m, the linear compensator part does not).  ``recover_b`` therefore
accepts the compensator moment as an optional correction; without it the
returned vector is the drift relative to an uncompensated exponent.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import FunctionFamily, TestFunction
from .measures import AtomicMeasure, finite_measure_space, integrate
from .metric_core import MetricStructure, NonConvergenceError, Point, point_removal_metric, sup_norm_space

Vector = np.ndarray
ExponentFn = Callable[[Vector], complex]


def levy_ground_space(dim: int) -> MetricStructure:
    """R^dim minus the origin, with the sup-norm metric plus the 1/|x| pull.

    d(x, y) = ||x - y||_inf + | ||x||_inf^-1 - ||y||_inf^-1 |; the origin is
    infinitely far away, so jump measures are boundedly finite on this space.
    """
    base = sup_norm_space(dim)
    return point_removal_metric(base, np.zeros(dim), reference_point=np.ones(dim))


def indicator_compensator(x) -> float:
    """Compensator weight 1_{||x||_inf <= 1}: the unit sup-norm ball."""
    return 1.0 if float(np.max(np.abs(np.asarray(x, dtype=float)))) <= 1.0 else 0.0


@dataclass(frozen=True)
class LevyTriple:
    """Drift vector, covariance matrix and jump measure of an infinitely divisible law."""

    b: Vector
    C: Vector
    mu: AtomicMeasure

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        C = np.asarray(self.C, dtype=float)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "C", C)
        if b.ndim != 1:
            raise ValueError(f"b must be a 1-d vector, got shape {b.shape}")
        if C.shape != (b.size, b.size):
            raise ValueError("C must be D x D with D = len(b)")
        for name, v in (("b", b), ("C", C)):
            if not np.isfinite(v).all():
                raise ValueError(f"{name} must be finite, got {v.tolist()}")
        if not np.allclose(C, C.T, atol=1e-12):
            raise ValueError("C must be symmetric")
        if np.linalg.eigvalsh(C).min() < -1e-10:
            raise ValueError("C must be positive semidefinite")

    @property
    def dim(self) -> int:
        return self.b.size

    def compensator_moment(self) -> Vector:
        """∫ x 1_{||x||_inf <= 1} dmu, the linear term the compensator injects into the exponent."""
        out = np.zeros(self.dim)
        for p, w in self.mu.atoms:
            out += w * indicator_compensator(p) * np.asarray(p, dtype=float)
        return out


def psi_exponent(triple: LevyTriple, u: Sequence[float]) -> complex:
    """log E[exp(i u . Z)] for the law with the given triple.

    i u.b - u.Cu/2 + sum_atoms w (exp(i u.x) - 1 - i u.x h(x)) with h the
    compensator weight, the indicator of the unit sup-norm ball.  u must be
    finite: a NaN or infinite coordinate raises ValueError naming u.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (triple.dim,):
        raise ValueError(f"u must have dimension {triple.dim}")
    if not np.isfinite(u).all():
        raise ValueError(f"u must be finite, got {u.tolist()}")
    val = 1j * float(u @ triple.b) - 0.5 * float(u @ triple.C @ u)
    for p, w in triple.mu.atoms:
        x = np.asarray(p, dtype=float)
        phase = float(u @ x)
        val += w * (np.exp(1j * phase) - 1.0 - 1j * phase * indicator_compensator(x))
    return complex(val)


def default_m_schedule(m_max: float = 1e3, points: int = 8) -> np.ndarray:
    """Geometric schedule ending at m_max; phases spread enough to average
    the oscillating jump contribution out of the extrapolation."""
    return np.geomspace(m_max / 5.0, m_max, points)


def _extrapolate(ms: np.ndarray, vals: np.ndarray, power: float) -> float:
    """Fit of vals ~ a + c * m^-power on at least two points; returns a.

    Two points give plain Richardson extrapolation, computed in closed form;
    more points are a least-squares fit, which damps oscillatory error terms
    that a two-point rule would amplify.
    """
    if len(ms) == 2:
        w1, w2 = ms**power
        return float((w2 * vals[1] - w1 * vals[0]) / (w2 - w1))
    design = np.column_stack([np.ones_like(ms), ms ** (-power)])
    coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
    return float(coef[0])


def _schedule_limit(
    m_schedule: Sequence[float], estimate: Callable[[float], float], power: float, tol: float, what: str
) -> float:
    """The one limit rule: lim estimate(m) as m grows, read off a finite schedule.

    The raw estimates are fitted with a + c * m^-power on the full schedule
    and on its tail half; the tail fit is returned once the two agree within
    ``tol``, and NonConvergenceError reports both fits otherwise.  The
    schedule must be positive and increasing with at least 3 entries, so that
    both fits extrapolate; one on which m^-power overflows raises
    NonConvergenceError before any estimate is evaluated.
    """
    ms = np.asarray(m_schedule, dtype=float)
    if ms.size < 3 or not (ms[0] > 0 and np.all(np.diff(ms) > 0)):
        raise ValueError("m_schedule must be positive and increasing with at least 3 entries")
    with np.errstate(over="ignore"):
        if not np.isfinite(ms ** -power).all():
            raise NonConvergenceError(
                f"non-convergent schedule for {what}: m^-{power:g} overflows at m = {ms[0]:.6g}"
            )
    vals = np.array([estimate(m) for m in ms], dtype=float)
    full = _extrapolate(ms, vals, power)
    tail = _extrapolate(ms[len(ms) // 2 :], vals[len(ms) // 2 :], power)
    if not (math.isfinite(full) and math.isfinite(tail)) or abs(full - tail) > tol:
        raise NonConvergenceError(
            f"non-convergent schedule for {what}: full-fit {full:.6g} vs tail-fit {tail:.6g}, "
            f"raw estimates {np.array2string(vals, precision=6)}"
        )
    return tail


def recover_C(psi: ExponentFn, dim: int, m_schedule: Sequence[float]) -> np.ndarray:
    """Covariance from the exponent: C_kj = -lim m^-2 [Psi(m(e_k+e_j)) - Psi(m e_k) - Psi(m e_j)].

    Each entry is a schedule limit with a 1/m^2 error model; full and tail
    fits more than 1e-2 apart raise NonConvergenceError with diagnostics.
    """
    eye = np.eye(dim)
    C = np.zeros((dim, dim))
    for k in range(dim):
        for j in range(k, dim):
            def estimate(m):
                return -(psi(m * (eye[k] + eye[j])) - psi(m * eye[k]) - psi(m * eye[j])).real / (m * m)

            C[k, j] = C[j, k] = _schedule_limit(m_schedule, estimate, 2.0, 1e-2, f"C[{k},{j}]")
    return C


def recover_b(
    psi: ExponentFn,
    C: np.ndarray,
    dim: int,
    m_schedule: Sequence[float],
    compensator_moment: Sequence[float] | None = None,
) -> np.ndarray:
    """Drift from the exponent once C is known.

    b_k = lim -(i/m)(Psi(m e_k) + m^2 C_kk / 2) plus, when supplied, the
    compensator moment ∫ x_k 1_{|x|<=1} dmu (see the module docstring for why
    that correction is needed as soon as mu charges the unit ball).  Each
    component is a schedule limit with a 1/m error model and a 5e-2 fit
    tolerance.  A non-vanishing imaginary residue in the bracket triggers a
    warning.
    """
    C = np.asarray(C, dtype=float)
    eye = np.eye(dim)
    b = np.zeros(dim)
    for k in range(dim):
        residues = []

        def estimate(m):
            val = (-1j / m) * (psi(m * eye[k]) + 0.5 * m * m * C[k, k])
            residues.append(abs(val.imag))
            return val.real

        est = _schedule_limit(m_schedule, estimate, 1.0, 5e-2, f"b[{k}]")
        resid = max(residues)
        if resid > 0.05 * (1.0 + abs(est)):
            warnings.warn(
                f"recover_b: imaginary residue {resid:.3g} in component {k}; "
                "the supplied C may not match the exponent",
                stacklevel=2,
            )
        b[k] = est
    if compensator_moment is not None:
        b = b + np.asarray(compensator_moment, dtype=float)
    return b


def _centered_wave(u: np.ndarray, x) -> complex:
    return np.exp(1j * float(u @ np.atleast_1d(np.asarray(x, dtype=float)))) - 1.0


def f_u(u: Sequence[float]) -> TestFunction:
    """F_u(x) = exp(i u . x) - 1, the centered plane wave; |F_u| <= 2."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return TestFunction(f"F[{np.array2string(u, precision=4)}]", lambda x: _centered_wave(u, x))


def levy_family(dim: int, u_samples: Sequence[tuple[Sequence[float], Sequence[float]]]) -> FunctionFamily:
    """Sampled family of products F_u * F_v on the punctured space; |F_u F_v| <= 4."""
    members = []
    for i, (u, v) in enumerate(u_samples):
        u, v = (np.atleast_1d(np.asarray(w, dtype=float)) for w in (u, v))
        members.append(TestFunction(f"FuFv[{i}]", lambda x, u=u, v=v: _centered_wave(u, x) * _centered_wave(v, x)))
    return FunctionFamily(tuple(members), levy_ground_space(dim))


# ---------------------------------------------------------------------------
# Random measures on a finite ground set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomMeasureLaw:
    """Drift measure b on a finite set E plus a jump measure over M_f(E) \\ {0}.

    The jump measure's atoms are themselves atomic measures on E; each must
    have positive total mass.  E is ``finite_ground_space(ground_set)``: b or
    a jump atom on any other space is refused by name.
    """

    ground_set: tuple
    b: AtomicMeasure
    mu: AtomicMeasure

    def __post_init__(self):
        label = finite_ground_space(self.ground_set).label
        if self.b.space.label != label:
            raise ValueError(f"b lives on {self.b.space.label!r}, not on the ground set {label!r}")
        for k, (nu, _) in enumerate(self.mu.atoms):
            if not isinstance(nu, AtomicMeasure) or nu.total_mass <= 0.0:
                raise ValueError("jump-measure atoms must be nonzero finite measures on E")
            if nu.space.label != label:
                raise ValueError(f"jump-measure atom {k} lives on {nu.space.label!r}, not on the ground set {label!r}")


def finite_ground_space(labels: Sequence[Point]) -> MetricStructure:
    """0/1 metric on a finite ground set; reference is the first element.

    The label lists the points, so measures on different ground sets are never compared.
    """
    pts = tuple(labels)
    if not pts:
        raise ValueError("discrete space needs at least one point")

    def dist(x: Point, y: Point) -> float:
        return 0.0 if x == y else 1.0

    return MetricStructure(dist, pts[0], f"discrete{pts!r}")


def laplace_functional(law: RandomMeasureLaw, phi: Callable) -> float:
    """L(phi) = <phi, b> + sum_atoms w (1 - exp(-<phi, nu>)) for finite phi >= 0 on E."""
    for e in law.ground_set:
        v = phi(e)
        if v < 0.0:
            raise ValueError(f"negative phi value at {e!r}")
        if not math.isfinite(v):
            raise ValueError(f"phi value {v} at {e!r} is not finite")
    linear = integrate(law.b, phi).real
    jump = 0.0
    for nu, w in law.mu.atoms:
        jump += w * (1.0 - math.exp(-integrate(nu, phi).real))
    return float(linear + jump)


def f_phi(phi: Callable, name: str) -> TestFunction:
    """F_phi(nu) = 1 - exp(-<phi, nu>) as a function of the measure nu; in [0, 1) for phi >= 0."""

    def fn(nu: AtomicMeasure):
        return 1.0 - math.exp(-integrate(nu, phi).real)

    return TestFunction(name, fn)


def f_phi_family(labels: Sequence, phi_samples: Sequence[Callable]) -> FunctionFamily:
    """Sampled family {F_phi} on nonzero finite measures over the ground set.

    Within its linear span the family is multiplicatively closed through
    F_phi * F_psi = F_phi + F_psi - F_{phi+psi} (expand both sides in
    a = exp(-<phi,nu>), b = exp(-<psi,nu>): each equals 1 - a - b + ab).
    """
    ground = finite_ground_space(labels)
    reference = AtomicMeasure.dirac(ground, tuple(labels)[0], 1.0)
    members = tuple(f_phi(phi, f"Fphi[{i}]") for i, phi in enumerate(phi_samples))
    return FunctionFamily(members, finite_measure_space(reference))


def recover_b_measure(L: Callable[[Callable], float], labels: Sequence, m_schedule: Sequence[float]) -> AtomicMeasure:
    """Drift measure from a Laplace functional: <b, 1_e> = lim (1/m) L(m 1_e).

    The jump contribution (1 - exp(-m <1_e, nu>))/m decays smoothly like 1/m,
    so the schedule limit with a 1/m error model is exact up to exponentially
    small terms; full and tail fits must agree within 1e-6, and weights at or
    below 1e-12 are dropped.
    """
    ground = finite_ground_space(labels)
    atoms = []
    for e in labels:
        def estimate(m):
            return L(lambda x: m if x == e else 0.0) / m

        weight = _schedule_limit(m_schedule, estimate, 1.0, 1e-6, f"<b, 1_{e!r}>")
        if weight > 1e-12:
            atoms.append((e, weight))
    return AtomicMeasure.from_atoms(ground, atoms)
