"""Every import in the package's modules and in the test modules is used
(``__init__`` re-exports, so it is exempt), no package module imports
an underscore-prefixed name from a sibling: what modules share is public
and documented, and only the instance generator imports ``random``: every
verdict is a deterministic function of its inputs.  Standard library only:
the AST names each import and each name the module reads."""
import ast
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
