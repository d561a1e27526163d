"""The public API of the ``measura`` package, pinned by name.

A name added to or removed from ``measura.__all__`` must be added to or
removed from ``EXPECTED`` here too, so that every export change is deliberate.
"""

import measura

EXPECTED = [
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
    "__version__",
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


def test_every_exported_name_imports():
    for name in measura.__all__:
        assert hasattr(measura, name), name


def test_exports_match_the_pinned_list():
    assert sorted(measura.__all__) == EXPECTED
