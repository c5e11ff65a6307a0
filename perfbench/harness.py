"""The clonecover benchmark: workloads, the per-instance chain, timed rounds
and the metrics they yield.

One run measures one workload in this process, single-threaded.  A round
takes one seed-determined block of instance specs through the chain

    generate_instance -> instance dumps/loads -> end_to_end_synthesize
    -> term dumps/loads -> verify_pair -> run_pipeline -> report dumps

and checks every verdict and every round trip.  Each round of a run takes
a new block, and the reported times are medians over rounds.  An untraced
run samples the machine's speed (see `speed`) and reports reference
seconds.  A traced run runs every block twice, untraced and then traced
(see `spans`), and both passes must produce the same canonical bytes.
"""
from __future__ import annotations

import dataclasses
import gzip
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

from spans import CallCounter, Target, Tracer
from speed import SpeedProbe

PACKAGE = "clonecover"
PROGRAM_MODULES = ("core", "analysis", "decompose", "synth", "instances",
                   "pipeline", "serialize")
PROFILES = ("mixed", "all-thrifty", "mary-witness")

SETUP_REPEATS = 5
MIN_ROUNDS = 2  # rounds of an untraced run, however short --seconds is
MAX_ROUNDS = 100
COVERAGE_FLOOR = 0.95  # share of traced wall time the modules must explain
BULK_SALT = 0xB0_1C  # decorrelates the bulk tuples from the generator's rng
BULK_REUSE = 0.3  # share of bulk tuples that reuse a value, as the generator

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "gen_s": "s",
    "synth_s": "s",
    "verdict_s": "s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MB",
}


# -- workloads ----------------------------------------------------------


@dataclass(frozen=True)
class Spec:
    """One instance of a round: generator arguments plus the bulk size."""

    m: int
    horizon: int
    theta: int
    seed: int
    profile: str
    bulk_size: int = 0  # grow dom(g) to this size after generation; 0 = off


# Round r of a run with seed n draws its instances from block
# n * MAX_ROUNDS + r, so rounds and runs never share an instance.


def corpus_round(seed: int, r: int, per_m: int = 20) -> list:
    """The acceptance-corpus shape: m = 1..3, horizon 12 on seeds that are
    multiples of 10 and 8 otherwise, theta = horizon // 2, profiles cycled.

    Instance seeds start at a multiple of 30 per arity block, so every round
    holds the same mix of horizons and profiles whatever the run's seed.
    """
    base = 3 * per_m * (seed * MAX_ROUNDS + r)
    specs = []
    for m in (1, 2, 3):
        for i in range(per_m):
            s = base + per_m * (m - 1) + i
            horizon = 12 if s % 10 == 0 else 8
            specs.append(Spec(m, horizon, horizon // 2, s, PROFILES[s % 3]))
    return specs


def bulk_round(seed: int, r: int, size: int = 300) -> list:
    """One m = 3 instance grown to |dom g| = size with low bulk tuples.

    The mary-witness profile plants wasteful features like mixed and adds
    the binary witness, so every synthesis stage runs.
    """
    return [Spec(3, 8, 4, seed * MAX_ROUNDS + r, "mary-witness", bulk_size=size)]


def horizon_round(seed: int, r: int, horizon: int = 64) -> list:
    """Three m = 3 instances at a large horizon, one per profile."""
    base = 3 * (seed * MAX_ROUNDS + r)
    return [Spec(3, horizon, horizon // 2, base + i, PROFILES[i])
            for i in range(len(PROFILES))]


@dataclass(frozen=True)
class Workload:
    round_specs: Callable[[int, int], list]  # (run seed, round) -> specs
    round_seconds: float  # clock seconds of one untraced round, as tuned

    def rounds(self, seconds: float, trace: bool) -> int:
        """Rounds that fit in ``seconds``; a traced round costs two.

        The count depends on ``seconds`` alone, not on the machine's speed,
        so every commit measures the same instances for the same seed.
        """
        fit = int(seconds // (self.round_seconds * (2 if trace else 1)))
        return min(MAX_ROUNDS, max(1 if trace else MIN_ROUNDS, fit))


WORKLOADS = {
    "corpus": Workload(corpus_round, 9.0),
    "bulk-m3": Workload(bulk_round, 12.0),
    "horizon-m3": Workload(horizon_round, 12.0),
}


# -- per-layer targets ----------------------------------------------------


def _count_decomposition(trace, counters: dict) -> None:
    for stage in trace.stages:
        _add(counters, "decompose.rerouted_tuples",
             len(stage.h) - len(stage.identity_domain))
        _add(counters, "decompose.a_size", len(stage.selection.a_set))


def _count_synthesis(result, counters: dict) -> None:
    _add(counters, "synth.q_size", len(result.q_table))
    _add(counters, "synth.term_size", result.term.size())
    _add(counters, "synth.term_depth", result.term.depth())


def _count_factor_points(factors, counters: dict) -> None:
    _add(counters, "pipeline.factor_points",
         sum(len(points) for points in factors.values()))


def _count_bytes(label: str):
    def hook(data, counters: dict) -> None:
        _add(counters, f"{label}.bytes", len(data))
    return hook


def _add(counters: dict, key: str, amount: int) -> None:
    counters[key] = counters.get(key, 0) + amount


def _targets() -> list:
    # strong_decompose, math_factorial and all_subsets are left out on
    # purpose: they are a wrapper and aliases the roadmap deletes.
    plain = {
        "core": ("fiber", "compose", "eval_term"),
        "analysis": ("classify_preimages", "k_table",
                     "is_hereditarily_thrifty", "width"),
        "decompose": ("strong_decompose_stage", "countable_selection",
                      "verify_decomposition"),
        "synth": ("reduce_to_unary", "normalize_f", "fiber_k_tables",
                  "build_h_family", "build_Q", "assemble_term",
                  "main_lemma_certify", "verify_main_lemma",
                  "verify_Q_in_CI"),
        "pipeline": ("run_pipeline", "verify_pair"),
        "instances": ("generate_instance", "check_admissibility"),
        "serialize": ("instance_loads", "term_loads"),
    }
    hooked = [
        Target("decompose", "hereditary_decompose", _count_decomposition),
        Target("synth", "end_to_end_synthesize", _count_synthesis),
        Target("pipeline", "random_width1_factors", _count_factor_points),
    ] + [Target("serialize", name, _count_bytes(f"serialize.{name}"))
         for name in ("instance_dumps", "term_dumps", "report_dumps")]
    targets = [Target(module, name)
               for module, names in plain.items() for name in names]
    order = {module: i for i, module in enumerate(plain)}
    return sorted(targets + hooked, key=lambda t: (order[t.module], t.name))


TARGETS = _targets()
CALL_COUNTERS = (
    CallCounter("core", "PartialFn", "__init__", "core.partialfn.constructions"),
)
COUNTERS = (
    "core.partialfn.constructions",
    "decompose.rerouted_tuples",
    "decompose.a_size",
    "synth.q_size",
    "synth.term_size",
    "synth.term_depth",
    "pipeline.factor_points",
    "serialize.instance_dumps.bytes",
    "serialize.term_dumps.bytes",
    "serialize.report_dumps.bytes",
)
LAYER_MODULES = tuple(dict.fromkeys(t.module for t in TARGETS))
PER_LAYER = dict(
    [(f"{t.label}.{kind}", unit) for t in TARGETS
     for kind, unit in (("calls", "count"), ("s", "s"))]
    + [(f"{module}.self_s", "s") for module in LAYER_MODULES]
    + [(name, "bytes" if name.endswith(".bytes") else "count")
       for name in COUNTERS]
    + [("traced_wall_s", "s"), ("unattributed_s", "s"),
       ("trace_overhead", "ratio")]
)


# -- set-up -------------------------------------------------------------


def fresh_import(baseline: frozenset) -> SimpleNamespace:
    """Import the program from scratch: drop every module loaded since
    ``baseline`` (the program's and whatever it alone pulled in), then
    import each program module again."""
    prefix = PACKAGE + "."
    for name in [n for n in sys.modules
                 if n not in baseline or n == PACKAGE or n.startswith(prefix)]:
        del sys.modules[name]
    return SimpleNamespace(**{
        name: importlib.import_module(f"{PACKAGE}.{name}")
        for name in PROGRAM_MODULES
    })


# -- the chain ----------------------------------------------------------


@dataclass
class Outcome:
    marks: tuple  # clock readings bounding the gen, synth and verdict stages
    blobs: tuple  # canonical instance, term and report bytes
    problems: list


def enlarge(cc, inst, size: int):
    """Grow dom(g) to ``size`` the way the generator's bulk step does.

    Bulk tuples have every component below theta, and a value is reused
    with probability BULK_REUSE; fresh values avoid every value in use.
    The tuples depend only on the instance's seed.
    """
    Point, MTuple = cc.core.Point, cc.core.MTuple
    rng = random.Random(inst.seed ^ BULK_SALT)
    graph = dict(inst.g.graph)
    planted = {Point(*f["value"]) for f in inst.metadata["features"]}
    used_values = set(graph.values())
    bulk_values = sorted(used_values - planted)
    arity = sorted(inst.g.arity)
    while len(graph) < size:
        u = MTuple.of({i: Point(rng.randrange(inst.ceiling),
                                rng.randrange(inst.theta)) for i in arity})
        if u in graph:
            continue
        if bulk_values and rng.random() < BULK_REUSE:
            v = rng.choice(bulk_values)
        else:
            v = Point(rng.randrange(inst.ceiling), rng.randrange(inst.ceiling))
            if v in used_values:
                continue
            used_values.add(v)
            bulk_values.append(v)
        graph[u] = v
    return dataclasses.replace(inst, g=cc.core.PartialFn(inst.g.arity, graph))


def planted_intact(cc, inst) -> bool:
    """Every planted feature tuple still maps to its planted value."""
    Point, MTuple = cc.core.Point, cc.core.MTuple
    for feature in inst.metadata["features"]:
        value = Point(*feature["value"])
        for entries in feature["wasters"] + feature["candidates"]:
            u = MTuple.of({i: Point(*p) for i, p in entries})
            if inst.g.graph.get(u) != value:
                return False
    return True


def run_instance(cc, spec: Spec) -> Outcome:
    clock = time.perf_counter
    problems = []
    t0 = clock()
    inst = cc.instances.generate_instance(
        spec.m, spec.horizon, spec.theta, spec.seed, spec.profile)
    if spec.bulk_size:
        inst = enlarge(cc, inst, spec.bulk_size)
        if not planted_intact(cc, inst):
            problems.append("bulk step overwrote a planted feature")
        if not cc.instances.check_admissibility(inst)["passed"]:
            problems.append("grown instance is not admissible")
    t1 = clock()
    inst_bytes = cc.serialize.instance_dumps(inst)
    loaded = cc.serialize.instance_loads(inst_bytes)
    if cc.serialize.instance_dumps(loaded) != inst_bytes:
        problems.append("instance bytes changed across dumps/loads")
    t2 = clock()
    result = cc.synth.end_to_end_synthesize(
        loaded.g, loaded.f, loaded.theta, loaded.horizon,
        unary_candidates=loaded.candidates)
    t3 = clock()
    term_bytes = cc.serialize.term_dumps(result.term)
    term = cc.serialize.term_loads(term_bytes)
    if cc.serialize.term_dumps(term) != term_bytes:
        problems.append("term bytes changed across dumps/loads")
    t4 = clock()
    if not cc.pipeline.verify_pair(loaded, term)["passed"]:
        problems.append("verify_pair failed on the loaded term")
    report, _ = cc.pipeline.run_pipeline(loaded)
    if not report["passed"]:
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        problems.append(f"report failed: {failing}")
    t5 = clock()
    report_bytes = cc.serialize.report_dumps(report)
    return Outcome(marks=((t0, t1), (t2, t3), (t4, t5)),
                   blobs=(inst_bytes, term_bytes, report_bytes),
                   problems=problems)


# -- rounds -------------------------------------------------------------


@dataclass
class Round:
    wall: float
    raw_wall: float  # seconds on the clock, before the speed scaling
    gen: float
    synth: float
    verdict: float
    latencies: list  # gen + synth + verdict per passing instance
    digests: tuple  # sha256 of the instance, term and report bytes
    attempted: int
    failed: int
    layers: Optional[dict] = None  # traced rounds only


def run_round(cc, specs, tracer: Optional[Tracer] = None,
              probe: Optional[SpeedProbe] = None) -> Round:
    """One pass over ``specs``.  With a probe, times are in reference
    seconds (see `speed`); without one, in clock seconds."""
    clock = time.perf_counter
    digests = [hashlib.sha256() for _ in range(3)]
    outcomes = []
    failed = 0
    start = clock()
    for spec in specs:
        try:
            if tracer is None:
                out = run_instance(cc, spec)
            else:
                with tracer.span("instance"):
                    out = run_instance(cc, spec)
        except Exception:  # noqa: BLE001 - a failing instance is counted
            failed += 1
            print(f"instance {spec} raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
            continue
        for digest, blob in zip(digests, out.blobs):
            digest.update(blob)
        outcomes.append(out)
        if out.problems:
            failed += 1
            print(f"instance {spec} failed: {'; '.join(out.problems)}",
                  file=sys.stderr)
    end = clock()

    if probe is None:
        def net(a, b):
            return b - a
    else:
        probe.sample()  # at least one sample per round, just after it
        net = probe.seconds
    stages = [[net(a, b) for a, b in out.marks] for out in outcomes]
    return Round(wall=net(start, end), raw_wall=end - start,
                 gen=sum(s[0] for s in stages),
                 synth=sum(s[1] for s in stages),
                 verdict=sum(s[2] for s in stages),
                 latencies=[sum(s) for s, out in zip(stages, outcomes)
                            if not out.problems],
                 digests=tuple(d.hexdigest() for d in digests),
                 attempted=len(specs), failed=failed)


def run_traced_round(cc, specs, tracer: Tracer) -> Round:
    tracer.reset()
    tracer.install()
    try:
        rnd = run_round(cc, specs, tracer)
    finally:
        tracer.uninstall()
    layers = tracer.aggregate()
    for name in COUNTERS:
        layers[name] = tracer.counters.get(name, 0)
    explained = sum(layers[f"{m}.self_s"] for m in LAYER_MODULES)
    layers["traced_wall_s"] = rnd.wall
    layers["unattributed_s"] = rnd.wall - explained
    rnd.layers = layers
    return rnd


# -- a run --------------------------------------------------------------


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> value
    notes: list  # human-readable lines printed before the result


def run(workload: Workload, seed: int, seconds: float,
        trace: bool, baseline: frozenset,
        spans_out: Optional[Path] = None) -> Result:
    """Set up, measure the rounds that fit in ``seconds``, derive metrics.

    An untraced run samples the machine's speed throughout and reports
    times in reference seconds; a traced run reports clock seconds.
    """
    if trace:
        return _measure(workload, seed, seconds, baseline, None, spans_out)
    with SpeedProbe() as probe:
        return _measure(workload, seed, seconds, baseline, probe, None)


def _measure(workload, seed, seconds, baseline, probe, spans_out) -> Result:
    clock = time.perf_counter
    setup_marks = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        cc = fresh_import(baseline)
        specs = workload.round_specs(seed, 0)
        setup_marks.append((t0, clock()))
        if probe is not None:
            probe.sample()
    setup_times = [probe.seconds(a, b) if probe else b - a
                   for a, b in setup_marks]

    trace = probe is None
    tracer = Tracer(PACKAGE, TARGETS, CALL_COUNTERS) if trace else None
    untraced, traced = [], []
    problems = []
    for r in range(workload.rounds(seconds, trace)):
        specs = workload.round_specs(seed, r)
        untraced.append(run_round(cc, specs, probe=probe))
        if tracer is not None:
            traced.append(run_traced_round(cc, specs, tracer))
            if traced[-1].digests != untraced[-1].digests:
                problems.append(f"round {r}: traced canonical bytes differ "
                                "from untraced")

    rounds = untraced + traced
    notes = [f"rounds: {len(untraced)} untraced, {len(traced)} traced, "
             f"{len(specs)} instances each"]
    for kind, hexdigest in zip(("instance", "term", "report"), rounds[0].digests):
        notes.append(f"sha256 {kind} bytes of round 0: {hexdigest}")

    latencies = sorted(x for r in untraced for x in r.latencies)
    if latencies:
        notes.append(_latency_note(latencies))
    if trace:
        metrics = _layer_metrics(traced, untraced, problems)
        if tracer.missing:
            notes.append(f"missing: {', '.join(sorted(tracer.missing))}")
        if spans_out is not None:
            spans_out.parent.mkdir(parents=True, exist_ok=True)
            with gzip.open(spans_out, "wt") as fh:
                json.dump(tracer.dump(), fh)
            notes.append(f"spans of the last traced round: {spans_out}")
    else:
        kernel = [e - s for s, e in zip(probe.starts, probe.ends)]
        notes.append(
            f"speed probe: median kernel {statistics.median(kernel) * 1e3:.3f} ms "
            f"over {len(kernel)} samples; round walls in clock seconds "
            + " ".join(f"{r.raw_wall:.3f}" for r in untraced)
            + ", in reference seconds "
            + " ".join(f"{r.wall:.3f}" for r in untraced))
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": _median_of(untraced, "wall"),
            "gen_s": _median_of(untraced, "gen"),
            "synth_s": _median_of(untraced, "synth"),
            "verdict_s": _median_of(untraced, "verdict"),
            "latency_p50_s": statistics.median(latencies) if latencies else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    notes.extend(problems)
    failed = sum(r.failed for r in rounds)
    return Result(correct=not problems and failed == 0,
                  attempted=sum(r.attempted for r in rounds), failed=failed,
                  metrics=metrics, notes=notes)


def _median_of(rounds: list, attr: str) -> float:
    return statistics.median(getattr(r, attr) for r in rounds)


def _latency_note(latencies: list) -> str:
    """Median latency, plus p90 when at least ten samples lie beyond it."""
    n = len(latencies)
    note = f"latency: p50 {statistics.median(latencies):.4f} s"
    if n >= 100:
        p90 = statistics.quantiles(latencies, n=10)[8]
        note += f", p90 {p90:.4f} s"
    return note + f" over {n} instances"


def _layer_metrics(traced: list, untraced: list, problems: list) -> dict:
    """Counts of round 0, median times over traced rounds, and the median
    traced-to-untraced wall ratio over rounds run on the same instances."""
    worst = min(1 - r.layers["unattributed_s"] / r.wall for r in traced)
    if worst < COVERAGE_FLOOR:
        problems.append(f"module self times explain only {worst:.1%} of the "
                        f"traced wall time (floor {COVERAGE_FLOOR:.0%})")
    metrics = {}
    for name, unit in PER_LAYER.items():
        if unit in ("count", "bytes"):
            metrics[name] = traced[0].layers[name]
        elif name != "trace_overhead":
            metrics[name] = statistics.median(r.layers[name] for r in traced)
    metrics["trace_overhead"] = statistics.median(
        t.wall / u.wall for t, u in zip(traced, untraced))
    return metrics


def result_json(result: Result, units: dict) -> str:
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items()},
    })
