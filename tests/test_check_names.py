"""Every check name the command line prints is written once in the program.

The commands `check`, `decompose`, `synth`, `verify` and `demo` run on the
golden instances and on the inadmissible ones of `test_golden`, and every
verdict line they print, ``PASS|FAIL  <name>  (<detail>)``, names a check.
So do the checks of `verify_decomposition`, which the "decomposition
contracts" detail lists when they fail.  With a stage's ``S=[...]: ``
prefix and a ``stage:`` check's stage stripped, each name must be one
string literal, and only one, in ``src/clonecover``: the one place that
makes the check.  `CHECK_NAMES` is the list of every name the program can
print.
"""
import ast
import re
from collections import Counter
from pathlib import Path

from clonecover import serialize
from clonecover.cli import main
from clonecover.decompose import hereditary_decompose, verify_decomposition
from clonecover.instances import generate_instance

from test_golden import GOLDEN, _failing_instance

SRC = Path(__file__).resolve().parent.parent / "src" / "clonecover"

CHECK_NAMES = (
    # clonecover check
    "coordinates below ceiling",
    "witness recoverable",
    "decomposition admissible",
    # clonecover decompose, and each stage of verify_decomposition
    "decomposition contracts",
    "g' contained in g",
    "exact recomposition",
    "fibers thrifty",
    "inner-map certificates",
    "final g' is the last stage's",
    "composed inner map is the stages' composition",
    "composed inner map recovers g",
    "final g' hereditarily thrifty",
    # clonecover synth and verify
    "stage:",
    "term equality on dom(g)",
    # clonecover demo: the report's checks
    "admissibility",
    "helper range certificates",
    "selector width bound (m!)",
    "per-line uniqueness",
    "selector width bound (width-2 products)",
)


def _bare(name: str) -> str:
    """name without a stage's S=[...] prefix or a stage check's stage."""
    name = re.sub(r"^S=\[[0-9, ]*\]: ", "", name)
    return "stage:" if name.startswith("stage:") else name


def _printed_names(capsys, inst, term_of, tmp_path) -> set:
    """The check names that the five commands print on inst; ``verify``
    reads the term of ``term_of``, an instance that synthesizes."""
    inst_path, term_path = tmp_path / "inst.json", tmp_path / "term.json"
    of_path = tmp_path / "of.json"
    inst_path.write_bytes(serialize.instance_dumps(inst))
    of_path.write_bytes(serialize.instance_dumps(term_of))
    assert main(["synth", "--instance", str(of_path),
                 "--out", str(term_path)]) == 0
    capsys.readouterr()
    given = ["--instance", str(inst_path)]
    for argv in (["check", *given], ["decompose", *given],
                 ["synth", *given, "--out", str(tmp_path / "out.json")],
                 ["verify", *given, "--term", str(term_path)],
                 ["demo", *given, "--out", str(tmp_path / "report.json")]):
        main(argv)
    out = capsys.readouterr()
    lines = (out.out + out.err).splitlines()
    return {line.split("  ")[1] for line in lines
            if line.startswith(("PASS  ", "FAIL  "))}


def test_every_printed_check_name_is_one_literal_in_src(capsys, tmp_path):
    printed = set()
    for m, seed, profile in sorted(GOLDEN):
        inst = generate_instance(m, 8, 4, seed, profile)
        printed |= _printed_names(capsys, inst, inst, tmp_path)
        trace = hereditary_decompose(inst.g, inst.theta)
        printed |= {c["name"] for c in
                    verify_decomposition(inst.g, trace).checks}
    for kind in ("witness", "decomposition", "both"):
        # their g, lifted or not, is over the base instance's arity
        printed |= _printed_names(capsys, _failing_instance(kind),
                                  generate_instance(2, 8, 4, 0), tmp_path)
    names = {_bare(name) for name in printed}
    assert sorted(names) == sorted(CHECK_NAMES)

    literals = Counter(
        node.value for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str))
    assert {name: literals[name] for name in CHECK_NAMES} == dict.fromkeys(
        CHECK_NAMES, 1)
