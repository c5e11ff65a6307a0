"""Every import in the package's modules and in the test modules is used
(``__init__`` re-exports, so it is exempt), no package module imports
an underscore-prefixed name from a sibling: what modules share is public
and documented, every underscore-prefixed name a package module binds at
its top level is read in that module, so no helper outlives its last
caller, and only the instance generator imports ``random``: every
verdict is a deterministic function of its inputs.  Standard library only:
the AST names each import and each name the module reads."""
import ast
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "clonecover"
PACKAGE = SRC.name
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by import statements and never read, in line order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for _, name in sorted(imported) if name not in read]


def test_detector_flags_an_unused_import():
    source = ("import os\nfrom typing import Optional, Sequence\n"
              "x: Optional[int] = os.sep\n")
    assert unused_imports(source) == ["Sequence"]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES,
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_sibling_imports(source: str) -> list:
    """Underscore-prefixed names a module imports from its own package, in
    line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0
                or (node.module or "").split(".")[0] == PACKAGE):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name.startswith("_")]
    return [name for _, name in sorted(found)]


def test_detector_flags_a_private_sibling_import():
    source = ("from __future__ import annotations\n"
              "from .core import PartialFn, _EMPTY_TUPLE\n"
              f"from {PACKAGE}.decompose import _inner_map_failure\n"
              "from . import _hidden\n"
              "from os import _exit\n")
    assert private_sibling_imports(source) == [
        "_EMPTY_TUPLE", "_inner_map_failure", "_hidden"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_private_sibling_imports(path):
    assert private_sibling_imports(path.read_text()) == []


def loaded_names(node) -> Counter:
    return Counter(n.id for n in ast.walk(node)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


def unread_private_names(source: str) -> list:
    """Underscore-prefixed (not dunder) names a module binds at its top
    level, by ``def``, ``class`` or assignment, and never reads outside
    their own body, in line order."""
    tree = ast.parse(source)
    read = loaded_names(tree)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.append((node.lineno, node.name))
            read[node.name] -= loaded_names(node)[node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            bound += [(n.lineno, n.id) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [name for _, name in sorted(bound)
            if name.startswith("_") and not name.startswith("__")
            and read[name] <= 0]


def test_detector_flags_an_unread_private_name():
    source = ("__all__ = []\n_CACHE: dict = {}\n_A, _B = 1, 2\n"
              "def _used():\n    return _CACHE, _A\n"
              "def _stale(x):\n    return _stale(x - 1)\n"
              "class _Gone:\n    _field = 0\n"
              "def public():\n    _local = _used()\n    return _local\n")
    assert unread_private_names(source) == ["_B", "_stale", "_Gone"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_private_name_is_read_in_its_module(path):
    assert unread_private_names(path.read_text()) == []


def imports_random(source: str) -> bool:
    """Whether a module imports ``random`` or anything from it."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(
                a.name.split(".")[0] == "random" for a in node.names):
            return True
        if (isinstance(node, ast.ImportFrom) and node.level == 0
                and (node.module or "").split(".")[0] == "random"):
            return True
    return False


def test_detector_flags_a_random_import():
    assert imports_random("import os, random\n")
    assert imports_random("import random as rnd\n")
    assert imports_random("def f():\n    from random import Random\n")
    assert not imports_random("from .instances import generate_instance\n"
                              "from . import random_things\n"
                              "import randomness\n")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_the_generator_imports_random(path):
    assert imports_random(path.read_text()) == (path.name == "instances.py")
