"""Boundedly finite measures on separable metric spaces, at desk scale.

Measures are finite weighted atom lists; convergence diagnostics integrate
them against explicit bounded function families.  Submodules:

* ``metric_core``    metric structures, point-removal and cube metrics
* ``measures``       atomic measures, Prokhorov distance, weak# reports
* ``algebra``        function families, checkers, weighted polynomial approx
* ``levy``           Levy-Khintchine exponents and Laplace functionals
* ``excursion``      killed Brownian motion and the excursion-measure target
* ``fragmentation``  mass-fragmentation states and their power sums
* ``cli``            reproducible experiment commands
"""

__version__ = "0.1.0"

from .metric_core import (
    BoundedSetWitness,
    MetricStructure,
    hilbert_cube_metric,
    point_removal_metric,
)
from .measures import (
    AtomicMeasure,
    ConvergenceReport,
    integrate,
    mf_measure_metric,
    prohorov_distance,
    weak_sharp_report,
)
from .algebra import CubePolynomial, FunctionFamily, NonConvergenceError, TestFunction, stone_weierstrass_p0
from .levy import LevyTriple, RandomMeasureLaw, psi_exponent, recover_C, recover_b
from .excursion import ExcursionFunctional, ExcursionPath, excursion_metric, sample_killed_bm
from .fragmentation import FragmentationSequence, g_p, phi, phi_inverse

__all__ = [
    "__version__",
    "AtomicMeasure",
    "BoundedSetWitness",
    "ConvergenceReport",
    "CubePolynomial",
    "ExcursionFunctional",
    "ExcursionPath",
    "FragmentationSequence",
    "FunctionFamily",
    "LevyTriple",
    "MetricStructure",
    "NonConvergenceError",
    "RandomMeasureLaw",
    "TestFunction",
    "excursion_metric",
    "g_p",
    "hilbert_cube_metric",
    "integrate",
    "mf_measure_metric",
    "phi",
    "phi_inverse",
    "point_removal_metric",
    "prohorov_distance",
    "psi_exponent",
    "recover_C",
    "recover_b",
    "sample_killed_bm",
    "stone_weierstrass_p0",
    "weak_sharp_report",
]
