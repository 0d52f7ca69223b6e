"""The package imports only the standard library, numpy and click, and
only ``newsforensics.files`` writes files, reads a path as text or reads
and writes CSV."""

import ast
import re
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


def test_only_the_files_module_imports_csv():
    stray = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != PACKAGE / "files.py"
        for line, name in absolute_imports(path.read_text())
        if name == "csv"
    ]
    assert stray == []


def test_only_the_files_module_calls_splitlines():
    # str.splitlines also ends lines at a form feed and Unicode separators;
    # files.split_lines ends them where the line walk does
    stray = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != PACKAGE / "files.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "splitlines"
    ]
    assert stray == []


def file_access(source: str) -> list[tuple[int, str]]:
    """(line, call) of every call in a module's source that writes a file
    (``write_text``, ``write_bytes``, an ``open`` in a write mode), replaces
    one (``os.replace``) or reads a path as text (a text-mode ``open``, a
    ``read_text`` method).  Reads of bundled data through
    ``importlib.resources`` are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        call = ast.unparse(node.func)
        method = call.rpartition(".")[2] if "." in call else None
        if method in ("write_text", "write_bytes") or call == "os.replace":
            found.append((node.lineno, call))
        elif (method == "read_text" and call != "files.read_text"
              and "resources.files(" not in call):
            found.append((node.lineno, call))
        elif "open" in (call, method):
            values = node.args + [k.value for k in node.keywords if k.arg == "mode"]
            modes = [v.value for v in values if isinstance(v, ast.Constant)
                     and isinstance(v.value, str) and re.fullmatch(r"[rwxabt+]+", v.value)]
            mode = modes[0] if modes else "r"
            if "b" not in mode or set(mode) & set("wxa+"):
                found.append((node.lineno, f"{call}({mode!r})"))
    return sorted(found)


def test_file_access_catches_writes_replaces_and_text_reads():
    source = (
        "p.write_text(s)\n"
        "p.write_bytes(b)\n"
        "os.replace(a, b)\n"
        "open(p, 'wb')\n"
        "open(p, encoding='utf-8')\n"
        "p.open(mode='a')\n"
        "def f(p):\n"
        "    return Path(p).read_text('utf-8')\n"
        "open(p, 'rb')\n"
        "p.open('rb')\n"
        "s.replace('a', 'b')\n"
        "read_text(p)\n"
        "files.read_text(p)\n"
        "(resources.files('pkg') / 'x.txt').read_text('utf-8')\n"
    )
    assert file_access(source) == [
        (1, "p.write_text"), (2, "p.write_bytes"), (3, "os.replace"), (4, "open('wb')"),
        (5, "open('r')"), (6, "p.open('a')"), (8, "Path(p).read_text"),
    ]


def test_only_the_files_module_writes_or_reads_text():
    stray = [
        f"{path.relative_to(PACKAGE)}:{line}: {call}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != PACKAGE / "files.py"
        for line, call in file_access(path.read_text())
    ]
    assert stray == []
