"""Test-function families and the constructive weighted polynomial approximation.

The three checkers test the abstract's hypotheses on a ``FunctionFamily``:
the family separates points, vanishes nowhere, and has a member bounded away
from 0 on a bounded set (acceptance criteria 04 and 13 run them).  They are
sampled certificates: a ``True`` verdict means "no counterexample found at the
given tolerance on the given sample", never a proof.

:func:`stone_weierstrass_p0` builds, for a continuous g: H -> [0,1] supported
on the slice {x_1 >= delta} of the cube of [0,1]-sequences, a polynomial p
vanishing on the face {x_1 = 0} with the weighted bound |g - p| <= eps * x_1.
The construction is p = x_1 * B_n(g/x_1) with B_n a tensor Bernstein operator
on one exact lattice of g/x_1 values; the degree is escalated until the bound
holds on a verification grid, where B_n is evaluated by one weight-matrix
contraction per axis.  The polynomial keeps that Bernstein form for float
evaluation and its exact power-basis terms as the oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .metric_core import BoundedSetWitness, MetricStructure, NonConvergenceError, Point, _require_finite, _require_int

ComplexFn = Callable[[Point], complex]


@dataclass(frozen=True)
class TestFunction:
    """An evaluable bounded function; each builder states its bound (``levy.f_u``: |F_u| <= 2)."""

    __test__ = False  # not a pytest collection target

    id: str
    fn: ComplexFn

    def __call__(self, x: Point) -> complex:
        return complex(self.fn(x))


@dataclass(frozen=True)
class FunctionFamily:
    members: tuple[TestFunction, ...]
    space: MetricStructure


def check_separates_points(
    fam: FunctionFamily,
    sample_pairs: Sequence[tuple[Point, Point]],
    tol: float,
) -> bool:
    """True iff for every sampled pair some member differs by more than tol."""
    for x, y in sample_pairs:
        if not any(abs(f(x) - f(y)) > tol for f in fam.members):
            return False
    return True


def check_vanishes_nowhere(fam: FunctionFamily, sample: Sequence[Point], tol: float) -> bool:
    """True iff at every sampled point some member has modulus above tol."""
    for x in sample:
        if not any(abs(f(x)) > tol for f in fam.members):
            return False
    return True


def check_bounded_below_on(
    fam: FunctionFamily,
    witness: BoundedSetWitness,
    sample: Sequence[Point],
) -> tuple[bool, str | None, float]:
    """Find a member whose modulus stays away from zero on the sampled set.

    The sample must be nonempty and lie inside the witness ball.  Returns
    (found, member id, delta) where delta is the best achieved sampled minimum
    modulus.
    """
    if len(sample) == 0:
        raise ValueError("the sample is empty: nothing to bound below")
    if not witness.contains_all(fam.space, sample):
        raise ValueError("sample point outside the bounded-set witness")
    if not fam.members:
        return False, None, 0.0
    best_id, best_min = None, -1.0
    for f in fam.members:
        m = min(abs(f(x)) for x in sample)
        if m > best_min:
            best_id, best_min = f.id, m
    return best_min > 0.0, best_id, best_min


# ---------------------------------------------------------------------------
# Polynomials on the cube
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CubePolynomial:
    """Multivariate polynomial in the first ``arity`` cube coordinates.

    ``terms`` maps exponent multi-indices to exact rational coefficients, so
    membership in the face-vanishing class is a syntactic check.  ``evaluate``
    uses the Bernstein form x_1 * B_n on the lattice ``bernstein_values``
    (numerically stable at high degree); ``evaluate_exact`` goes through the
    terms in exact rational arithmetic and is the oracle for the Bernstein
    form.
    """

    terms: dict[tuple[int, ...], Fraction]
    arity: int
    degree: int
    bernstein_values: np.ndarray = field(repr=False, compare=False)

    def in_p0(self) -> bool:
        """Every term has a positive first-coordinate exponent (syntactic)."""
        return all(m[0] >= 1 for m, c in self.terms.items() if c != 0)

    def evaluate(self, x: Sequence[float]) -> float:
        """The Bernstein form at a point of the cube; missing coordinates are 0.

        A coordinate outside [0, 1], NaN included, raises a ValueError that
        names its index and value: the Bernstein weights of such a point would
        silently clamp it to the nearest face.
        """
        xs = [float(v) for v in x]
        for k, xk in enumerate(xs):
            if not 0.0 <= xk <= 1.0:
                raise ValueError(f"x[{k}] = {xk} lies outside the cube [0, 1]")
        xs = xs[: self.arity] + [0.0] * (self.arity - len(xs))
        return xs[0] * _bernstein_eval(self.bernstein_values, self.degree, [[xi] for xi in xs]).item()

    def evaluate_exact(self, x: Sequence[float | Fraction]) -> Fraction:
        xs = [Fraction(x[i]) if i < len(x) else Fraction(0) for i in range(self.arity)]
        total = Fraction(0)
        for m, c in self.terms.items():
            term = c
            for xi, e in zip(xs, m):
                term *= xi**e
            total += term
        return total


def _bernstein_eval(values: np.ndarray, n: int, points: Sequence[Sequence[float]]) -> np.ndarray:
    """Tensor Bernstein polynomial of degree n with lattice ``values`` on a product grid.

    ``points`` holds one list of abscissae per axis.  Each axis contracts the
    leading lattice axis with a (len x (n + 1)) matrix of Bernstein weights
    in one matrix product and appends the result axis, so the result has
    shape ``tuple(len(p) for p in points)``; a single point is a grid of
    one-point lists.
    """
    out = values
    for axis in points:
        weights = np.array([_bernstein_weights(n, xi) for xi in axis])
        out = (out.reshape(n + 1, -1).T @ weights.T).reshape(out.shape[1:] + (len(axis),))
    return out


@functools.lru_cache(maxsize=1024)
def _bernstein_weights(n: int, x: float) -> np.ndarray:
    """Binomial(n, x) probabilities C(n, j) x^j (1 - x)^(n - j) for x in [0, 1], read-only.

    At x <= 0 all the mass is on j = 0 and at x >= 1 on j = n.  Inside, the
    weight at the mode is set to 1 and the others are built outward from it
    with the ratio w[j + 1] / w[j] = (n - j) x / ((j + 1)(1 - x)), then
    normalised.  Every partial product from the mode is at most about 1, so
    nothing overflows at any n; far tails underflow to 0.  The products run in
    a plain float loop, with the factors and order of ``np.cumprod``, so the
    bits are the cumprod form's.  The loop is cheaper than the numpy calls
    below n of about 100 and dearer above; at such degrees the exact lattice
    and its power terms cost far more than the weights.

    The vectors are cached, at most 1024 of them (2.1 MB at n = 256): the
    verification grid of :func:`stone_weierstrass_p0` asks for the same
    abscissae on every axis, and ``CubePolynomial.evaluate`` at the grid
    points asks for them again.  The vector depends only on (n, float(x)), so
    a cached one has the bits a fresh one would; it is read-only so that no
    caller can change what the next one gets.
    """
    x = float(x)  # a numpy scalar would make every step of the loops a numpy call
    if x <= 0.0 or x >= 1.0:
        w = np.zeros(n + 1)
        w[0 if x <= 0.0 else n] = 1.0
        w.flags.writeable = False
        return w
    m = min(int((n + 1) * x), n)
    r = x / (1.0 - x)
    w = [1.0] * (n + 1)
    p = 1.0
    for j in range(m, n):
        p *= (n - j) / (j + 1.0) * r
        w[j + 1] = p
    p = 1.0
    for j in range(m - 1, -1, -1):
        p *= (j + 1.0) / ((n - j) * r)
        w[j] = p
    w = np.array(w)
    w /= w.sum()
    w.flags.writeable = False
    return w


_FACE_OFFSET = 2.0**-30  # power of two: scaling by it is exact in floats


def _scaled_ratio_lattice(g, n: int, arity: int, known: dict[tuple[float, ...], Fraction]) -> np.ndarray:
    """Exact lattice values of g(x)/x_1 at x = j/n, as an object array of Fractions.

    On the x_1 = 0 face the ratio is taken by continuity, sampled just inside
    the cube; for g supported away from the face this is exactly 0.

    ``known`` maps lattice points ``tuple(j_i / n)`` to their values and is
    filled in here, so that a caller building lattices of several degrees
    calls g and builds a Fraction once per point.  That is exact: j/n and
    2j/2n are the same float, so g sees the same point, and Fraction(n, j_1)
    is the same rational at both degrees.  Distinct lattice points of degrees
    below 2**26 are distinct floats, so no two of them share a key.
    """
    lattice = np.empty((n + 1,) * arity, dtype=object)
    for j in np.ndindex(lattice.shape):
        x = tuple(ji / n for ji in j)
        value = known.get(x)
        if value is None:
            if j[0] == 0:
                value = Fraction(float(g((_FACE_OFFSET,) + x[1:])) / _FACE_OFFSET)  # exact: power-of-two scaling
            else:
                value = Fraction(float(g(x))) * Fraction(n, j[0])
            known[x] = value
        lattice[j] = value
    return lattice


def _power_terms(lattice: np.ndarray, n: int) -> dict[tuple[int, ...], Fraction]:
    """Exact power-basis expansion of the tensor Bernstein polynomial, times x_1.

    Uses iterated forward differences: the coefficient of x^m is
    prod_i C(n, m_i) * (Delta^m value)(0), computed over a common denominator
    so the difference tables run on Python integers.
    """
    den = math.lcm(*(f.denominator for f in lattice.flat))
    table = np.empty(lattice.shape, dtype=object)
    for j, f in np.ndenumerate(lattice):
        table[j] = f.numerator * (den // f.denominator)
    for axis in range(lattice.ndim):
        table = np.swapaxes(table, 0, axis)
        for order in range(1, n + 1):
            table[order:] = table[order:] - table[order - 1 : -1]
        table = np.swapaxes(table, 0, axis)
    terms: dict[tuple[int, ...], Fraction] = {}
    for m, num in np.ndenumerate(table):
        if num == 0:
            continue
        coeff = Fraction(num, den)
        for mi in m:
            coeff *= math.comb(n, mi)
        # multiply by x_1: shift the first exponent
        terms[(m[0] + 1,) + m[1:]] = coeff
    return terms


def stone_weierstrass_p0(
    g: Callable[[Sequence[float]], float],
    delta: float,
    eps: float,
    degree_budget: int,
    arity: int = 1,
    grid_points: int = 50,
) -> CubePolynomial:
    """Weighted polynomial approximation vanishing on the x_1 = 0 face.

    ``g`` must be continuous, [0,1]-valued, depend only on its first ``arity``
    coordinates, and vanish whenever x_1 <= delta (checked on the grid; by
    continuity a g that vanishes below delta vanishes at delta too, and at
    delta = 0 the check is that g vanishes on the face).  The
    returned polynomial p satisfies |g(x) - p(x)| <= eps * x_1 at every point
    of the verification grid (``grid_points`` per axis, faces included), or
    NonConvergenceError("degree budget exhausted") is raised.  ``eps`` must be
    finite and positive, ``delta`` finite and nonnegative, ``degree_budget``
    and ``arity`` ints of at least 1 and ``grid_points`` an int of at least 2:
    any other value, NaN included, raises a ValueError that names it.

    The degrees tried are 1, 2, 4, ... and then ``degree_budget``.  Their
    lattices share one dict of exact values, so g is called once per distinct
    lattice point over the whole trail ((n + 1)**arity times if the last
    degree n is a power of two), and each grid abscissa's weight vector is
    built once per degree and then served from the cache of
    :func:`_bernstein_weights`, also to ``evaluate`` at the grid points.
    """
    _require_finite(eps=eps)
    _require_finite(delta=delta, nonnegative=True)
    degree_budget = _require_int("degree_budget", degree_budget, 1)
    arity = _require_int("arity", arity, 1)
    grid_points = _require_int("grid_points", grid_points, 2)
    axis = np.linspace(0.0, 1.0, grid_points)
    shape = (grid_points,) * arity
    gvals = np.array([float(g(x)) for x in itertools.product(axis, repeat=arity)]).reshape(shape)
    x1 = np.broadcast_to(axis.reshape((-1,) + (1,) * (arity - 1)), shape)

    if not np.all(np.abs(gvals[x1 <= delta]) <= 1e-12):  # NaN fails too
        raise ValueError("support assertion violated: g does not vanish where x_1 <= delta")
    if not (gvals.min() >= -1e-9 and gvals.max() <= 1.0 + 1e-9):  # min and max are NaN if any value is
        raise ValueError("g must take values in [0, 1]")

    degrees = []
    n = 1
    while n < degree_budget:
        degrees.append(n)
        n *= 2
    degrees.append(degree_budget)

    known: dict[tuple[float, ...], Fraction] = {}
    for n in degrees:
        lattice = _scaled_ratio_lattice(g, n, arity, known)
        values = lattice.astype(float)
        approx = _bernstein_eval(values, n, [axis] * arity)
        if np.all(np.abs(gvals - x1 * approx) <= eps * x1 + 1e-12):
            return CubePolynomial(_power_terms(lattice, n), arity, n, values)
    raise NonConvergenceError(
        f"degree budget exhausted: no degree <= {degree_budget} meets the weighted bound {eps}"
    )
