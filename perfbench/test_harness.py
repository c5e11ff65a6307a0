"""Tests of the benchmark harness itself, at tiny sizes.

    python3 -m pytest perfbench/test_harness.py
"""
import json
import sys
from functools import partial
from pathlib import Path

import pytest

import harness
from spans import Target, Tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "corpus": harness.Workload(partial(harness.corpus_round, per_m=1), 1.0),
    "bulk-m3": harness.Workload(partial(harness.bulk_round, size=40), 1.0),
    "horizon-m3": harness.Workload(
        partial(harness.horizon_round, horizon=10), 1.0),
}


def test_workloads_match_benchmark_json():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(harness.WORKLOADS) == list(TINY)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_is_emitted(workload, trace, tmp_path):
    spans_out = tmp_path / "spans.json.gz"
    result = harness.run(TINY[workload], seed=1, seconds=0, trace=trace,
                         baseline=frozenset(sys.modules), spans_out=spans_out)
    assert result.correct, result.notes
    assert result.failed == 0 and result.attempted > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = harness.PER_LAYER if trace else harness.END_TO_END
    assert list(result.metrics) == [m["name"] for m in declared]
    assert [units[m["name"]] for m in declared] == [m["unit"] for m in declared]
    line = json.loads(harness.result_json(result, units))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert spans_out.exists() == trace


def test_bulk_builder_is_deterministic_and_keeps_the_plant():
    cc = harness.fresh_import(frozenset(sys.modules))
    inst = cc.instances.generate_instance(3, 8, 4, 5, "mary-witness")
    first = harness.enlarge(cc, inst, 60)
    second = harness.enlarge(cc, inst, 60)
    assert len(first.g) == 60 and first.g == second.g
    assert first.metadata == inst.metadata
    assert harness.planted_intact(cc, first)
    assert cc.instances.check_admissibility(first)["passed"]
    low = all(p.y < inst.theta for u in set(first.g.graph) - set(inst.g.graph)
              for p in u.points())
    assert low


def test_tracer_reports_missing_names_and_restores_originals():
    cc = harness.fresh_import(frozenset(sys.modules))
    original = cc.analysis.fiber
    tracer = Tracer(harness.PACKAGE, [Target("core", "fiber"),
                                      Target("core", "no_such_function")])
    tracer.install()
    try:
        assert cc.analysis.fiber is not original
        assert cc.core.fiber is cc.analysis.fiber
    finally:
        tracer.uninstall()
    assert cc.analysis.fiber is original and cc.core.fiber is original
    assert tracer.missing == {"core.no_such_function"}
