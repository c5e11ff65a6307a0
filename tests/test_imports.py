"""Every import in the package's modules and in the test modules is used,
so ``__init__`` re-exports nothing and each name has one import path, its
module's; no package module imports an underscore-prefixed name from a
sibling: what modules share is public and documented, every
underscore-prefixed name a package module binds at its top level is read
in that module, every public one is read by some other package module, so
no helper outlives its last caller, and only the instance generator
imports ``random``: every verdict is a deterministic function of its
inputs.  Standard library only: the AST names each import and each name
the module reads."""
import ast
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "clonecover"
PACKAGE = SRC.name
MODULES = sorted(SRC.glob("*.py"))
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_sibling_imports(path):
    assert private_sibling_imports(path.read_text()) == []


def loaded_names(node, modules=()) -> Counter:
    """The names node reads: bare names, and the attributes it reads off
    one of ``modules`` by the module's name (``serialize.term_loads``)."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        or isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
        and n.value.id in modules)


def top_level_names(tree, read: Counter) -> list:
    """The names a module binds at its top level, by ``def``, ``class`` or
    assignment, in line order.  A def's or class's reads of its own name
    inside its body are taken off ``read``."""
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
    return [name for _, name in sorted(bound)]


def unread_private_names(source: str) -> list:
    """Underscore-prefixed (not dunder) names a module binds at its top
    level and never reads outside their own body, in line order."""
    tree = ast.parse(source)
    read = loaded_names(tree)
    return [name for name in top_level_names(tree, read)
            if name.startswith("_") and not name.startswith("__")
            and read[name] <= 0]


def test_detector_flags_an_unread_private_name():
    source = ("__all__ = []\n_CACHE: dict = {}\n_A, _B = 1, 2\n"
              "def _used():\n    return _CACHE, _A\n"
              "def _stale(x):\n    return _stale(x - 1)\n"
              "class _Gone:\n    _field = 0\n"
              "def public():\n    _local = _used()\n    return _local\n")
    assert unread_private_names(source) == ["_B", "_stale", "_Gone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_read_in_its_module(path):
    assert unread_private_names(path.read_text()) == []


def unread_public_names(sources: dict) -> list:
    """``(module, name)`` for each public name a module of ``sources``
    (module name -> source) binds at its top level that no module reads
    outside the name's own body, in module and line order."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = Counter()
    for tree in trees.values():
        read.update(loaded_names(tree, trees))
    bound = [(module, name) for module, tree in trees.items()
             for name in top_level_names(tree, read)]
    return [(module, name) for module, name in bound
            if not name.startswith("_") and read[name] <= 0]


def test_detector_flags_an_unread_public_name():
    sources = {
        "core": ("LIMIT = 3\nWIDTH, SPARE = 1, 2\n"
                 "def used():\n    return LIMIT\n"
                 "def recursive(n):\n    return recursive(n - 1)\n"
                 "class Gone:\n    pass\n"
                 "def _private():\n    pass\n"),
        "cli": ("from . import core\nfrom .core import Gone, used\n"
                "def main():\n    return used(), core.WIDTH\n"
                "if __name__ == '__main__':\n    main()\n"),
    }
    assert unread_public_names(sources) == [
        ("core", "SPARE"), ("core", "recursive"), ("core", "Gone")]


def test_every_public_name_is_read():
    assert unread_public_names(
        {p.stem: p.read_text() for p in MODULES}) == []


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_generator_imports_random(path):
    assert imports_random(path.read_text()) == (path.name == "instances.py")
