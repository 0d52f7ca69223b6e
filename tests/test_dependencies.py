"""The package imports only the standard library, numpy and click."""

import ast
import sys
from pathlib import Path

import newsforensics

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "click", "newsforensics"}
PACKAGE = Path(newsforensics.__file__).parent


def absolute_imports(source: str) -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import in a module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_absolute_imports_catch_nested_and_dotted_names():
    source = "import os.path\nfrom . import x\ndef f():\n    from scipy.stats import t\n"
    assert absolute_imports(source) == [(1, "os"), (4, "scipy")]


def test_package_imports_only_declared_dependencies():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    stray = [
        f"{path.relative_to(PACKAGE)}:{line}: {name}"
        for path in modules
        for line, name in absolute_imports(path.read_text())
        if name not in ALLOWED
    ]
    assert stray == []
