"""Library code imports only the standard library and its own package, so the
test-only oracles (sympy, hypothesis) never become runtime dependencies."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hybridcensus"


def top_level_imports(path):
    """(line, top-level module) for each absolute import in a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_library_imports_only_stdlib():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{line}: {name}"
        for path in modules
        for line, name in top_level_imports(path)
        if name not in sys.stdlib_module_names and name != PACKAGE.name
    ]
    assert found == []
