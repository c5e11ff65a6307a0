"""``PartialFn._trusted`` wraps a graph without the constructor's checks,
so `PartialFn`'s docstring names every function that calls it, each with
the reason its graphs are valid; this lint holds that list to the code.
Standard library only: the AST names each call's enclosing function."""
import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "clonecover"


def trusted_callers(sources: dict) -> list:
    """The functions of ``sources`` (module name -> source) that call
    ``_trusted``, each by its qualified name, prefixed by its module's but
    for ``core``, in module and line order."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, module, [*scope, child.name])
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "_trusted"):
                name = ".".join(scope if module == "core"
                                else [module, *scope])
                found.append((module, child.lineno, name))
            visit(child, module, scope)

    for module, source in sources.items():
        visit(ast.parse(source), module, [])
    return [name for _, _, name in sorted(found)]


def documented_callers(docstring: str) -> list:
    """The names in double backticks, but ``_trusted``, of the docstring
    from its sentence that starts "The callers of ``_trusted``" to the end
    of that paragraph."""
    _, listing = docstring.split("The callers of ``_trusted``")
    return [n for n in re.findall(r"``([\w.]+)``", listing.split("\n\n")[0])
            if n != "_trusted"]


def test_detector_names_each_caller():
    sources = {
        "core": ("class PartialFn:\n"
                 "    def restrict(self):\n"
                 "        return PartialFn._trusted(1, {})\n"
                 "def compose():\n    return PartialFn._trusted(1, {})\n"),
        "synth": ("def build():\n    def inner():\n"
                  "        return PartialFn._trusted(1, {})\n"
                  "    return PartialFn(1, {}), inner()\n"
                  "def checked():\n    return PartialFn(1, {})\n"),
    }
    assert trusted_callers(sources) == [
        "PartialFn.restrict", "compose", "synth.build.inner"]
    assert documented_callers(
        "Intro ``x``.  The callers of ``_trusted`` are ``a.b`` and\n"
        "``c``.\n\nOthers: ``d``.") == ["a.b", "c"]


def test_the_docstring_names_every_trusted_caller():
    core = ast.parse((SRC / "core.py").read_text())
    [fn] = [node for node in core.body
            if isinstance(node, ast.ClassDef) and node.name == "PartialFn"]
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert (set(documented_callers(ast.get_docstring(fn)))
            == set(trusted_callers(sources)))
