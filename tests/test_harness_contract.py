"""What the benchmark harness reads of the program, checked in tier-1.

``perfbench/harness.py`` grows the bulk-m3 instances with its own
``enlarge`` and checks them with ``planted_intact``; both read the program's
types and the instance's attributes (``ceiling``, ``theta``, ``metadata``),
and ``enlarge`` builds its result with ``dataclasses.replace``.  Its
``run_instance`` reads the verdicts ``check_admissibility(...)["passed"]``,
``verify_pair(...)["passed"]`` and the report's ``passed`` and ``checks``.
A program change that breaks them fails here rather than in a benchmark
run.
The harness is imported read-only.  It is handed the modules this session
already imported, not its ``fresh_import``, which would drop and re-import
them under the other tests.
"""
import dataclasses
import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from clonecover import core, instances, pipeline, serialize, synth
from clonecover.instances import check_admissibility, generate_instance

from conftest import grown

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import harness  # noqa: E402  (needs perfbench/ on the path)

PROGRAM = SimpleNamespace(core=core, instances=instances, pipeline=pipeline,
                          serialize=serialize, synth=synth)


def test_bulk_builder_is_deterministic_and_keeps_the_plant():
    inst = generate_instance(3, 8, 4, 5, "mary-witness")
    first = harness.enlarge(PROGRAM, inst, 60)
    second = harness.enlarge(PROGRAM, inst, 60)
    assert len(first.g) == 60 and first.g == second.g
    assert first.metadata == inst.metadata
    assert harness.planted_intact(PROGRAM, first)
    assert check_admissibility(first)["passed"]
    low = all(p.y < inst.theta for u in set(first.g.graph) - set(inst.g.graph)
              for p in u.points())
    assert low
    # the tests' copy of the growth rule grows the same tuples, and the
    # grown instance survives the harness's dumps/loads round trip
    assert first.g == grown(inst, 60).g
    data = serialize.instance_dumps(first)
    assert serialize.instance_loads(data) == first


def test_ceiling_is_derived_from_the_horizon():
    # the ceiling is no stored field, so it follows a replaced horizon, and
    # enlarge, which reads it and replaces g, still runs
    inst = generate_instance(2, 6, 3, 0)
    assert "ceiling" not in {f.name for f in dataclasses.fields(inst)}
    for horizon in (6, 8, 12):
        assert dataclasses.replace(inst, horizon=horizon).ceiling == (
            horizon * horizon + horizon)
    big = harness.enlarge(PROGRAM, inst, 40)
    assert len(big.g) == 40 and big.ceiling == inst.ceiling == 42
    assert all(p.x < 42 and p.y < 42 for u in big.g.graph for p in u.points())


def test_grown_reads_an_instance_whose_metadata_is_empty():
    # metadata must be an object, but what it holds is not checked: the
    # tests' growth rule treats a missing "features" key as no features
    inst = generate_instance(2, 6, 3, 0)
    doc = json.loads(serialize.instance_dumps(inst))
    bare = serialize.instance_loads(serialize.dumps({**doc, "metadata": {}}))
    assert bare.metadata == {}
    assert len(grown(bare, 40).g) == 40


def test_one_small_instance_of_each_workload_shape_passes_the_chain():
    # The workloads' own round builders, at their smallest: one m = 2
    # corpus instance, a bulk instance grown to 60 tuples, and the mixed
    # and mary-witness instances at horizon 16, the latter with a binary
    # witness and its candidates.  The chain checks every verdict it reads.
    horizon = harness.horizon_round(3, 0, horizon=16)
    specs = [
        next(spec for spec in harness.corpus_round(3, 0, per_m=1)
             if spec.m == 2),
        *harness.bulk_round(3, 0, size=60),
        horizon[0],
        horizon[2],
    ]
    assert [(spec.m, spec.horizon, spec.bulk_size) for spec in specs] == [
        (2, 8, 0), (3, 8, 60), (3, 16, 0), (3, 16, 0)]
    assert specs[-1].profile == "mary-witness"
    for spec in specs:
        out = harness.run_instance(PROGRAM, spec)
        assert out.problems == []
        report = serialize.loads(out.blobs[2], "report")
        assert report["passed"] and report["checks"]


def test_only_the_known_stale_names_are_traced_in_vain():
    # The harness wraps each target found as an attribute of its program
    # module; one that is not found is only reported under "missing:", and
    # its per-layer metrics read nothing.  These seven name functions the
    # program no longer has.  Renaming or merging away another traced
    # function fails here rather than in a benchmark run.
    unresolved = {
        target.label for target in harness.TARGETS
        if not callable(getattr(importlib.import_module(
            f"clonecover.{target.module}"), target.name, None))}
    assert unresolved == {
        "analysis.classify_preimages",
        "analysis.is_hereditarily_thrifty",
        "analysis.k_table",
        "core.eval_term",
        "core.fiber",
        "pipeline.random_width1_factors",
        "synth.verify_main_lemma",
    }
