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

``import measura`` loads none of them.  A name of ``__all__`` (or a
submodule, as ``measura.levy``) loads its submodule on first access, so a
program, and each ``measura`` command, loads only the submodules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "BoundedSetWitness": "metric_core",
    "MetricStructure": "metric_core",
    "NonConvergenceError": "metric_core",
    "hilbert_cube_metric": "metric_core",
    "point_removal_metric": "metric_core",
    "AtomicMeasure": "measures",
    "ConvergenceReport": "measures",
    "integrate": "measures",
    "mf_measure_metric": "measures",
    "prohorov_distance": "measures",
    "weak_sharp_report": "measures",
    "CubePolynomial": "algebra",
    "FunctionFamily": "algebra",
    "TestFunction": "algebra",
    "stone_weierstrass_p0": "algebra",
    "LevyTriple": "levy",
    "RandomMeasureLaw": "levy",
    "psi_exponent": "levy",
    "recover_C": "levy",
    "recover_b": "levy",
    "ExcursionFunctional": "excursion",
    "ExcursionPath": "excursion",
    "excursion_metric": "excursion",
    "sample_killed_bm": "excursion",
    "FragmentationSequence": "fragmentation",
    "g_p": "fragmentation",
    "phi": "fragmentation",
    "phi_inverse": "fragmentation",
}
_SUBMODULES = ("metric_core", "measures", "algebra", "levy", "excursion", "fragmentation", "cli")

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later accesses skip this function
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
