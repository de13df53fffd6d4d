import ast
import importlib
from collections import Counter
from pathlib import Path

import tabkit

SRC = Path(tabkit.__file__).parent
TESTS = Path(__file__).parent


# stands in for a linter's unused-import rule, which this project does not run:
# every module-level `import x`, `from x import y` and `from .x import y`
def _unused_module_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_module_level_imports():
    unused = {
        f"{path.parent.name}/{path.name}": found
        for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
        if (found := _unused_module_imports(path))
    }
    assert unused == {}


def test_stdlib_imports_are_checked_too(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\nimport os.path as osp\nfrom functools import lru_cache\n"
        "from itertools import chain\nfrom .core import flip\n\nchain\n"
    )
    assert _unused_module_imports(module) == [
        (1, "os"), (2, "osp"), (3, "lru_cache"), (5, "flip"),
    ]


LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _traced_names():
    """layer.name of each function the benchmark's tracer wraps by name."""
    constants = {
        target.id: ast.literal_eval(node.value)
        for node in ast.parse(LAYERTRACE.read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
        and target.id in ("FUNCTION_METRICS", "OPERATOR_MOVES")
    }
    return set(constants["FUNCTION_METRICS"]) | {
        f"operators.{move}" for move in constants["OPERATOR_MOVES"]
    }


def test_traced_names_exist():
    # the tracer wraps tabkit functions by name; renaming or deleting one of
    # them would otherwise show only when the benchmark runs
    names = sorted(_traced_names())
    missing = []
    for dotted in names:
        layer, name = dotted.split(".")
        if not hasattr(importlib.import_module(f"tabkit.{layer}"), name):
            missing.append(dotted)
    assert names and missing == []


def _names_used(node):
    """Names read anywhere under node, as identifiers or attributes."""
    return Counter(
        inner.id if isinstance(inner, ast.Name) else inner.attr
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Name, ast.Attribute))
    )


def _defined_names(node):
    """Names a module-level statement defines: a function, a class, or the
    plain-name targets of an assignment, dunders such as __version__ aside."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [
            target.id
            for target in node.targets
            if isinstance(target, ast.Name) and not target.id.startswith("__")
        ]
    return []


def test_src_holds_what_it_runs():
    # each module-level function, class and constant of src is used in src
    # outside its own definition, or is named by the tracer; test-only
    # references live in tests/oracles.py
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = sum((_names_used(tree) for tree in trees.values()), Counter())
    traced = _traced_names()
    unused = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for node in tree.body
        for name in _defined_names(node)
        if used[name] == _names_used(node)[name]
        and f"{module}.{name}" not in traced
    ]
    assert unused == []


def _function_level_imports(path):
    """(line, function) for each import inside a function body."""
    tree = ast.parse(path.read_text())
    return sorted(
        (inner.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    )


def test_no_function_level_imports(tmp_path):
    # every import sits at module level, where the unused-import check sees it
    module = tmp_path / "m.py"
    module.write_text("import os\n\ndef f():\n    from .core import flip\n    return flip\n")
    assert _function_level_imports(module) == [(4, "f")]
    found = {
        path.name: found
        for path in sorted(SRC.glob("*.py"))
        if (found := _function_level_imports(path))
    }
    assert found == {}


def _functions_holding(text, path):
    """module.function, or the module alone at module level, for each
    string in the module's code that contains text; an f-string's literal
    parts are strings too."""
    tree = ast.parse(path.read_text())
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{path.stem}.{node.name}"
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and text in node.value:
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, path.stem)
    return found


def test_only_move_tables_checks_the_carrier(tmp_path):
    # one function says that a move left its carrier: move_tables and
    # closure raise what it builds
    module = tmp_path / "m.py"
    module.write_text(
        'A = "left the carrier"\n\ndef f(x):\n    def g():\n'
        '        raise ValueError(f"{x} left the carrier")\n    return g\n'
    )
    assert _functions_holding("left the carrier", module) == ["m", "m.g"]
    found = [
        owner
        for path in sorted(SRC.glob("*.py"))
        for owner in _functions_holding("left the carrier", path)
    ]
    assert found == ["equivalence._left_carrier"]


def test_only_cli_names_the_carrier_flags():
    # the CLI checks its own carrier flags: no string elsewhere names one
    found = {
        flag: sorted({
            owner
            for path in sorted(SRC.glob("*.py"))
            for owner in _functions_holding(flag, path)
        })
        for flag in ("--n", "--alpha")
    }
    assert found == {
        "--n": ["cli.build_parser", "cli.cmd_classes"],
        "--alpha": ["cli.build_parser", "cli.cmd_classes"],
    }


def _tableau_checks(path):
    """Line of each `isinstance(…, Tableau)` call in the module, the class
    named alone, in a tuple, or as an attribute such as `tableaux.Tableau`."""
    tree = ast.parse(path.read_text())
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and "Tableau" in _names_used(node.args[1])
    ]


def test_the_engine_holds_words_not_tableaux(tmp_path):
    # equivalence, qsym and cli hold reading words: none imports Tableau or
    # defines key_of, and only tableaux.py asks whether an object is a Tableau
    module = tmp_path / "m.py"
    module.write_text(
        "from .tableaux import Tableau\n\ndef f(x):\n"
        "    return isinstance(x, (tuple, Tableau)) or isinstance(x, int)\n"
    )
    assert _tableau_checks(module) == [4]
    for name in ("equivalence", "qsym", "cli"):
        tree = ast.parse((SRC / f"{name}.py").read_text())
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        defined = {found for node in tree.body for found in _defined_names(node)}
        assert "Tableau" not in imported and "key_of" not in defined, name
    checked = [path.stem for path in sorted(SRC.glob("*.py")) if _tableau_checks(path)]
    assert checked == ["tableaux"]
