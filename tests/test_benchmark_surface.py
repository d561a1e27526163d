"""The measura names the benchmark harness reads, checked without importing it.

perfbench/workloads.py calls measura and patches its functions by name, and
perfbench/common.py names the spans those patches record.  A refactor that
renames or privatises one of them breaks the benchmark, not the package, so
this test lists them: it parses both files with ast, resolves every measura
name they use and fails on a private name, a missing one, or one missing
from PERFBENCH_USES below.
"""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Every measura name perfbench/workloads.py and perfbench/common.py use.
PERFBENCH_USES = {
    "measura.algebra",
    "measura.algebra.CubePolynomial",
    "measura.algebra.CubePolynomial.evaluate",
    "measura.algebra.stone_weierstrass_p0",
    "measura.cli",
    "measura.cli.emit",
    "measura.cli.empirical_lhs",
    "measura.cli.main",
    "measura.cli.prohorov_distance",
    "measura.cli.prohorov_distance_bruteforce",
    "measura.cli.recover_C",
    "measura.cli.recover_b",
    "measura.cli.recover_b_measure",
    "measura.cli.run",
    "measura.cli.stone_weierstrass_p0",
    "measura.cli.weak_sharp_report",
    "measura.excursion",
    "measura.excursion.ExcursionFunctional",
    "measura.excursion.ExcursionPath",
    "measura.excursion.empirical_lhs",
    "measura.excursion.eval_functional",
    "measura.excursion.excursion_metric",
    "measura.excursion.smoothed_bump",
    "measura.excursion.smoothed_cutoff",
    "measura.excursion.target_rhs",
    "measura.levy",
    "measura.levy.LevyTriple",
    "measura.levy.RandomMeasureLaw",
    "measura.levy.default_m_schedule",
    "measura.levy.finite_ground_space",
    "measura.levy.laplace_functional",
    "measura.levy.levy_ground_space",
    "measura.levy.psi_exponent",
    "measura.levy.recover_C",
    "measura.levy.recover_b",
    "measura.levy.recover_b_measure",
    "measura.measures",
    "measura.measures.AtomicMeasure",
    "measura.measures.AtomicMeasure.from_atoms",
    "measura.measures.mf_measure_metric",
    "measura.measures.prohorov_distance",
    "measura.measures.prohorov_distance_bruteforce",
    "measura.measures.weak_sharp_report",
    "measura.metric_core",
    "measura.metric_core.MetricStructure",
    "measura.metric_core.MetricStructure.dist",
    "measura.metric_core.hilbert_cube_metric",
    "measura.metric_core.point_removal_metric",
    "measura.metric_core.real_line",
    "measura.metric_core.sample_metric_axioms",
}

_DOTTED = re.compile(r"measura(\.\w+)+")


def _dotted(node, bound):
    """The measura name an expression such as ``excursion.ExcursionPath`` stands for, or None."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, bound)
        return base and f"{base}.{node.attr}"
    return None


def _names_used(path: Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}  # local name -> the measura name it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "measura":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    used = set(bound.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            used.add(_dotted(node, bound))
        elif isinstance(node, (ast.Tuple, ast.Call)):
            # (module, "attr", ...) rows of the instrument table and tracer.patch(owner, "attr", ...)
            items = node.elts if isinstance(node, ast.Tuple) else node.args
            owner = _dotted(items[0], bound) if items else None
            if owner and len(items) > 1 and isinstance(items[1], ast.Constant) and isinstance(items[1].value, str):
                used.add(f"{owner}.{items[1].value}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED.fullmatch(node.value):
            used.add(node.value)  # a span name
        elif isinstance(node, ast.JoinedStr) and node.values and isinstance(node.values[0], ast.Constant):
            head = node.values[0].value.split("[")[0]  # "measura.cli.run[{command}]" names measura.cli.run
            if _DOTTED.fullmatch(head):
                used.add(head)
    used.discard(None)
    return {name for name in used if name.split(".")[0] == "measura"}


def _resolve(name: str):
    # a dataclass field without a default, such as MetricStructure.dist, is no class attribute
    parts = name.split(".")
    obj = importlib.import_module(".".join(parts[:2]))
    for part in parts[2:]:
        fields = {f.name: f for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else {}
        obj = fields[part] if part in fields else getattr(obj, part)
    return obj


def test_perfbench_uses_only_listed_public_measura_names():
    used = _names_used(PERFBENCH / "workloads.py") | _names_used(PERFBENCH / "common.py")
    private = sorted(n for n in used if any(part.startswith("_") for part in n.split(".")))
    assert not private, f"perfbench uses private measura names: {private}"
    missing = []
    for name in sorted(used):
        try:
            _resolve(name)
        except (ImportError, AttributeError):
            missing.append(name)
    assert not missing, f"perfbench uses names measura lacks: {missing}"
    assert sorted(used - PERFBENCH_USES) == [], "perfbench uses measura names missing from PERFBENCH_USES"
    assert sorted(PERFBENCH_USES - used) == [], "PERFBENCH_USES lists names perfbench no longer uses"
