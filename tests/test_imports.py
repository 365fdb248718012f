"""Every module of the package uses each name it imports, and every definition is used.

No linter ships with the test dependencies, so this walks the syntax tree:
a name bound by an import must appear as a name somewhere in the module,
in code or in an annotation.  ``__init__.py`` is exempt because its imports
are the package's exports.  A top-level function or class must be exported
in ``torspec.__all__`` or be referenced, as a name or an attribute, by some
module of the package, and so must every method of a top-level class apart
from the dunder ones; a definition only tests call is dead code.  No
top-level name is defined in two modules, so each constant and helper has
one home.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import torspec

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "torspec"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _unused_imports(source):
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in _imported_names(tree).items() if name not in used)


def test_checker_flags_unused_and_keeps_used():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import List, Optional, Sequence\n"
        "from .x import a as b, c\n"
        "def f(v: Optional[int]) -> List[int]:\n"
        "    return [math.pi, b]\n"
    )
    assert _unused_imports(source) == [(3, "os"), (4, "Sequence"), (5, "c")]


def test_package_has_modules():
    assert "resonance_theory.py" in MODULES and "cli.py" in MODULES


def test_exports_are_the_names_init_imports():
    # __init__.py states each export once, in its import lists, and reads
    # __all__ off what they bind: neither os nor a submodule is exported
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(torspec.__all__) == sorted(imported)
    assert len(set(imported)) == len(imported)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    unused = _unused_imports((PACKAGE / module).read_text())
    assert not unused, f"{module} imports names it never uses: {unused}"


def _dead_definitions(sources, exported):
    """(module, name) of definitions nothing exports or references.

    A definition is a top-level function or class, or a method of a
    top-level class, named "Class.method"; dunder methods are called by
    Python itself, and a method counts as used if its name is referenced
    anywhere, whatever the object.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, functions + (ast.ClassDef,)):
                continue
            if node.name not in exported and node.name not in referenced:
                dead.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                dead.extend(
                    (module, f"{node.name}.{method.name}")
                    for method in node.body
                    if isinstance(method, functions)
                    and not (method.name.startswith("__") and method.name.endswith("__"))
                    and method.name not in referenced
                )
    return sorted(dead)


def test_dead_definition_walker():
    sources = {
        "a.py": (
            "def dead():\n"
            "    pass\n"
            "class Exported:\n"
            "    def __init__(self):\n"
            "        pass\n"
            "    def method(self):\n"
            "        return _helper()\n"
            "    @property\n"
            "    def unused(self):\n"
            "        pass\n"
            "def _helper():\n"
            "    def inner():\n"
            "        pass\n"
            "def by_attribute():\n"
            "    pass\n"
            "def by_name():\n"
            "    pass\n"
        ),
        "b.py": (
            "from . import a\nfrom .a import by_name\n"
            "value = a.by_attribute() + by_name() + a.Exported().method()\n"
        ),
    }
    assert _dead_definitions(sources, {"Exported"}) == [("a.py", "Exported.unused"), ("a.py", "dead")]


def test_no_dead_definitions():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    dead = _dead_definitions(sources, set(torspec.__all__))
    assert not dead, f"defined but neither exported nor used in the package: {dead}"


def _duplicate_definitions(sources):
    """(name, modules) of top-level names bound by def, class or assignment in two or more modules."""
    owners = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            for name in names:
                owners.setdefault(name, set()).add(module)
    return sorted((name, sorted(modules)) for name, modules in owners.items() if len(modules) > 1)


def test_duplicate_definition_walker():
    sources = {
        "a.py": "from .b import shared\nTOL = 1e-12\nX: int = 1\ndef helper():\n    local = 1\nclass K:\n    TOL = 2\n",
        "b.py": "TOL, other = 1e-9, 0\ndef shared():\n    pass\nclass helper:\n    pass\n",
        "c.py": "X = 2\nif True:\n    other = 1\n",
    }
    assert _duplicate_definitions(sources) == [
        ("TOL", ["a.py", "b.py"]),
        ("X", ["a.py", "c.py"]),
        ("helper", ["a.py", "b.py"]),
    ]


def test_no_name_defined_twice():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    duplicates = _duplicate_definitions(sources)
    assert not duplicates, f"top-level names defined in more than one module: {duplicates}"


_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# prints the BLAS thread variables as numpy first loads, and after the import
_BLAS_PROBE = """
import os, sys
names = %r
seen = []
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append([os.environ.get(n) for n in names])
sys.meta_path.insert(0, Probe())
import torspec
print(*seen[0], *[os.environ.get(n) for n in names])
""" % (_BLAS_VARIABLES,)


@pytest.mark.parametrize(
    "given, expected",
    [({}, ["1", "1", "1"]), ({"OPENBLAS_NUM_THREADS": "3", "MKL_NUM_THREADS": "2"}, ["3", "2", "1"])],
    ids=["unset", "set"],
)
def test_import_caps_blas_unless_set(given, expected):
    # OpenBLAS, MKL and BLIS get one thread per call, set before numpy loads,
    # so results do not depend on the host's core count (with two OpenBLAS
    # threads the matrix of G(0.2,0.1) . F . F . R at band 10 stays the same,
    # but its spectrum, tr(M^3) and tr(M^5) change in their last bits); a
    # caller's own setting wins
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARIABLES}
    env.update(given)
    env["PYTHONPATH"] = str(PACKAGE.parent)
    done = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == expected + expected
