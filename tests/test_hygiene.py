"""Source hygiene: no module-level import in the package goes unused, no
import sits inside a function, no module imports another's underscore name,
and no `assert` guards anything (`python -O` strips it).

Neither pyflakes nor ruff is a dependency, so this walks the AST itself.
`__init__.py` is skipped because its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import obstruction_lab

PACKAGE = Path(obstruction_lab.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def function_imports(source: str) -> list[str]:
    found = []
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append(f"{func.name} (line {node.lineno})")
    return sorted(set(found))


def test_unused_import_detector():
    source = "from __future__ import annotations\nimport os, sys\nfrom x import a, b as c\nprint(sys, c)\n"
    assert unused_imports(source) == ["a (line 3)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_function_import_detector():
    source = "import os\ndef f():\n    import sys\n    def g():\n        from x import y\n    return os\n"
    assert function_imports(source) == ["f (line 3)", "f (line 5)", "g (line 5)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_imports(path):
    assert function_imports(path.read_text()) == []


def private_imports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names if alias.name.startswith("_")]
            found += [f"{name} (line {node.lineno})" for name in names]
    return sorted(found)


def asserts(source: str) -> list[str]:
    nodes = ast.walk(ast.parse(source))
    return sorted(f"line {node.lineno}" for node in nodes if isinstance(node, ast.Assert))


def test_private_import_and_assert_detectors():
    source = "from x import _a, b\ndef f():\n    assert b\n"
    assert private_imports(source) == ["_a (line 1)"]
    assert asserts(source) == ["line 3"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_asserts(path):
    assert asserts(path.read_text()) == []
