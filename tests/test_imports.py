import ast
from pathlib import Path

import tabkit

SRC = Path(tabkit.__file__).parent


# stands in for a linter's unused-import rule, which this project does not run
def _unused_module_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_module_level_imports():
    unused = {
        path.name: found
        for path in sorted(SRC.glob("*.py"))
        if (found := _unused_module_imports(path))
    }
    assert unused == {}
