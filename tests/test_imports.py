"""Every import in the package's modules and in the test modules is used
(``__init__`` re-exports, so it is exempt).  Standard library only: the AST
names each import and each name the module reads."""
import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "clonecover"
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
