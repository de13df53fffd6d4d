import ast
from pathlib import Path

import tabkit

SRC = Path(tabkit.__file__).parent


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
        path.name: found
        for path in sorted(SRC.glob("*.py"))
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
