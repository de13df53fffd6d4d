"""The benchmark's layer tracer wraps tabkit functions by name; renaming or
deleting one of them would otherwise show only when the benchmark runs."""

import ast
import importlib
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _constant(name):
    for node in ast.parse(LAYERTRACE.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {LAYERTRACE.name}")


def test_traced_names_exist():
    names = list(_constant("FUNCTION_METRICS"))
    names += [f"operators.{move}" for move in _constant("OPERATOR_MOVES")]
    missing = []
    for dotted in names:
        layer, name = dotted.split(".")
        if not hasattr(importlib.import_module(f"tabkit.{layer}"), name):
            missing.append(dotted)
    assert names and missing == []
