"""Source hygiene: no module-level import in the package goes unused, no
import sits inside a function, no module imports another's underscore name,
no `assert` guards anything (`python -O` strips it), and no function assigns
a local it never reads (a name starting with `_` marks one as unused on
purpose).  Every top-level function and class of the package must be named
somewhere in `src/`, `tests/` or `perfbench/` outside its own definition; the
search is by whole word, so the benchmark tracer's patches by name count.
The hole kernel `_holes_in_window` is called only by iter_holes's window loop
and by all_holes, so its length windows are chosen in one place.  Each
binding `sweeps._TRACER_ONLY` keeps is one the benchmark tracer patches on
`sweeps` and no sweep calls, so the list cannot go stale.

Neither pyflakes nor ruff is a dependency, so this walks the AST itself.
`__init__.py` is skipped because its imports are the package's re-exports.
"""

import ast
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import obstruction_lab
from obstruction_lab import sweeps

PACKAGE = Path(obstruction_lab.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent


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


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def own_nodes(func: ast.AST):
    """The nodes of func's body outside nested functions and classes;
    comprehensions count as func's own."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def dead_locals(source: str) -> list[str]:
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own = list(own_nodes(func))
        # a nested function's reads count: it may close over the local
        read = {n.id for n in ast.walk(func) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        read |= {name for n in own if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names}
        for n in own:
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                if not n.id.startswith("_") and n.id not in read:
                    found.append(f"{func.name}: {n.id} (line {n.lineno})")
    return sorted(found)


def test_dead_local_detector():
    source = (
        "def f(a):\n"
        "    b = 1\n"
        "    c, _d = a\n"
        "    for i, x in a:\n"
        "        print(x)\n"
        "    def g():\n"
        "        nonlocal c\n"
        "        c = [y for y in a]\n"
        "        e = 2\n"
        "    g()\n"
        "    return c\n"
    )
    assert dead_locals(source) == ["f: b (line 2)", "f: i (line 4)", "g: e (line 9)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_locals(path):
    assert dead_locals(path.read_text()) == []


WORD = re.compile(r"\w+")


def dead_definitions(modules: dict[str, str], others: list[str]) -> list[str]:
    """The top-level functions and classes of `modules` (name: source) whose
    name appears, as a whole word, nowhere in `modules` and `others` outside
    their own definition."""
    counts = Counter(word for text in (*modules.values(), *others) for word in WORD.findall(text))
    found = []
    for module, source in modules.items():
        lines = source.splitlines()
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = WORD.findall("\n".join(lines[node.lineno - 1 : node.end_lineno]))
                if counts[node.name] == own.count(node.name):
                    found.append(f"{module}: {node.name} (line {node.lineno})")
    return sorted(found)


def test_dead_definition_detector():
    source = (
        "def used():\n"
        "    return 1\n"
        "def recursive(k):\n"
        "    return recursive(k - 1)\n"
        "@decorated\n"
        "class Patched:\n"
        "    pass\n"
    )
    others = ["used()", 'patch(m, "Patched")', "unrelated_recursive"]
    assert dead_definitions({"m": source}, others) == ["m: recursive (line 3)"]


def test_no_dead_definitions():
    package = ROOT / "src" / "obstruction_lab"
    folders = ("src", "tests", "perfbench")
    sources = {path: path.read_text() for folder in folders for path in (ROOT / folder).rglob("*.py")}
    modules = {path.name: text for path, text in sources.items() if path.parent == package}
    others = [text for path, text in sources.items() if path.parent != package]
    assert len(modules) == len(MODULES) + 1  # and __init__.py
    assert dead_definitions(modules, others) == []


def callers(source: str, callee: str) -> list[tuple[str, int]]:
    """(scope, line) of each call of `callee` by name or as an attribute;
    the scope is the enclosing function or class, nested ones and lambdas by
    their own name, or <module>."""
    tree = ast.parse(source)
    scopes = [("<module>", tree)]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scopes.append((node.name, node))
        elif isinstance(node, ast.Lambda):
            scopes.append(("<lambda>", node))
    found = []
    for name, scope in scopes:
        for node in own_nodes(scope):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if called == callee:
                    found.append((name, node.lineno))
    return sorted(found)


def test_caller_detector():
    source = (
        "x = k(1)\n"
        "def f():\n"
        "    def g():\n"
        "        return m.k(2)\n"
        "    return lambda: k(3)\n"
        "class C:\n"
        "    y = kk(4) + k(5)\n"
    )
    assert callers(source, "k") == [("<lambda>", 5), ("<module>", 1), ("C", 7), ("g", 4)]


HOLE_KERNEL_CALLERS = {("detectors.py", "_windowed_holes"), ("detectors.py", "all_holes")}


def test_hole_window_policy_has_one_owner():
    found = {(path.name, name) for path in MODULES for name, _ in callers(path.read_text(), "_holes_in_window")}
    assert found == HOLE_KERNEL_CALLERS


# prints the names of the `sweeps` attributes the benchmark tracer replaces
TRACER_PATCHES = """
import sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
from obstruction_lab import sweeps
import tracing
before = dict(vars(sweeps))
tracing.install(tracing.Tracer(Path(sys.argv[3])))
print(*sorted(name for name, value in vars(sweeps).items() if before.get(name) is not value))
"""


def test_tracer_only_bindings_are_patched_by_the_tracer_and_called_by_no_sweep(tmp_path):
    argv = [sys.executable, "-c", TRACER_PATCHES, str(ROOT / "perfbench"), str(PACKAGE.parent), str(tmp_path)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    patched = set(done.stdout.split())
    names = [fn.__name__ for fn in sweeps._TRACER_ONLY]
    assert all(getattr(sweeps, name) is fn for name, fn in zip(names, sweeps._TRACER_ONLY))
    assert set(names) <= patched
    source = (PACKAGE / "sweeps.py").read_text()
    assert [name for name in names if callers(source, name)] == []
