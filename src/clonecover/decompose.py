"""Rewriting a function as (hereditarily thrifty part) composed with a
width-harmless inner map.

The driver is `hereditary_decompose`, which sweeps all subsets S of the
index set; each sweep is a `strong_decompose_stage` step: split every fiber
into its thrifty and wasteful parts, re-route the wasteful parts through
freshly selected representative tuples of a width-1 set A, and write g' and
the moved tuples of the inner map h in one pass over g.  h fixes every
other tuple, so a stage records only what it moves.
`verify_decomposition` re-checks a trace from its graphs alone, the
width-harmlessness of every inner map included.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .analysis import (
    Checklist,
    all_subsets,
    fiber_bounds,
    fiber_columns,
    tuple_set_width,
    width,
)
from .core import (
    IndexMismatchError,
    IndexSet,
    MTuple,
    PartialFn,
    Point,
    compose,
)


class AdmissibilityError(RuntimeError):
    """A choice step of the construction ran out of suitable tuples."""


@dataclass
class SelectionResult:
    """Outcome of the representative-tuple selection over a wasteful family.

    Chosen tuples are pairwise y-disjoint, so their union A has width <= 1.
    A stage keeps only the chosen tuple of each wasteful value in g' and
    re-routes the value's whole preimage onto it.
    """

    a_set: frozenset  # the width-1 set A
    chosen: dict  # (fiber key c, value d) -> chosen tuple


def countable_selection(wasteful: Mapping[MTuple, Mapping[Point, list]],
                        theta: int) -> SelectionResult:
    """Pick one representative tuple per (fiber key, value) pair.

    `wasteful` maps each fiber key c to its wasteful values, and each value
    to the non-S parts of its preimage in that fiber: {c: {v: [z, ...]}}.
    Deterministic greedy: fiber keys in canonical order, values by (line,
    column); within a preimage only tuples whose every component y-coordinate
    is below theta and unused so far are eligible, and among those the one
    with the largest minimal component y (ties broken canonically) is taken.
    The theta cap keeps each chosen singleton preimage thrifty at theta.
    """
    used_ys: set = set()
    chosen: dict = {}
    a_set: set = set()
    for c in sorted(wasteful):
        preimages = wasteful[c]
        for d in sorted(preimages, key=lambda p: (p.y, p.x)):
            candidates = [
                u for u in preimages[d]
                if max(p.y for p in u.points()) < theta
                and not any(p.y in used_ys for p in u.points())
            ]
            if not candidates:
                raise AdmissibilityError(
                    f"no fresh low tuple left for fiber key {c!r}, value {d!r}"
                )
            pick = max(candidates, key=lambda u: (u.min_y(), u))
            used_ys.update(p.y for p in pick.points())
            chosen[(c, d)] = pick
            a_set.add(pick)
    return SelectionResult(a_set=frozenset(a_set), chosen=chosen)


@dataclass
class StageRecord:
    """One strong-decomposition sweep for a fixed argument subset S; its
    inner map h sends u to ``moved.get(u, u)``, fixing every other tuple."""

    s: IndexSet
    g_prime: PartialFn
    moved: dict  # each re-routed u = c ∪ z, picks included -> c ∪ pick
    selection: SelectionResult


@dataclass
class DecompositionTrace:
    """The full sweep over all subsets S, plus the composed inner map."""

    theta: int
    stages: list  # StageRecord, in sweep order
    g_prime: PartialFn
    h_composed: PartialFn


def strong_decompose_stage(g: PartialFn, s: IndexSet, theta: int) -> StageRecord:
    """One sweep: make every fiber of g at S thrifty at theta.

    The record's g' is contained in g, g = g' o h exactly, and every fiber
    of g' at S is all-thrifty.  The value bounds come from `fiber_bounds`,
    and one pass over g and its fiber keys (`fiber_columns`) classifies
    each entry u -> v of fiber c against them: a thrifty entry keeps u in
    g' and h fixes it; a wasteful one adds its non-S part to the
    `countable_selection` input and, once the pick for (c, v) is known,
    moves to c∪pick, only the pick keeping its g' entry.  g' lists g's
    thrifty entries in g's order, then the picks in g's order; it is
    wrapped unchecked, as its entries come from g.
    """
    s = frozenset(s)
    if not s <= g.arity:
        raise ValueError(f"S={sorted(s)} not inside arity {sorted(g.arity)}")
    if not g.is_point_valued():
        raise IndexMismatchError("decomposition applies to point-valued functions")
    if theta < 1:
        raise ValueError("theta must be at least 1")
    bounds = fiber_bounds(g, s)
    g_graph: dict = {}
    wasteful: dict = {}
    rerouted: list = []
    for u, v, c in zip(g.graph, g.graph.values(), fiber_columns(g, s)[0]):
        if bounds[c][v] <= theta:
            g_graph[u] = v
        else:
            wasteful.setdefault(c, {}).setdefault(v, []).append(u.without(s))
            rerouted.append((u, v, c))
    selection = countable_selection(wasteful, theta)
    moved: dict = {}
    for u, v, c in rerouted:
        target = moved[u] = c.union(selection.chosen[(c, v)])
        if u == target:
            g_graph[u] = v

    g_prime = PartialFn._trusted(g.arity, g_graph, g.codomain)
    return StageRecord(s=s, g_prime=g_prime, moved=moved, selection=selection)


def _inner_map_failure(stage: StageRecord) -> str:
    """Why one stage's inner map is not width-harmless; "" when it is.

    h fixes every tuple outside ``moved``; on the moved ones, every
    S-indexed component is a projection and every other component's range
    has width at most 1.
    """
    moved = stage.moved.items()
    if any(v.restrict(stage.s) != u.restrict(stage.s) for u, v in moved):
        return "S-component not a projection"
    for i in sorted(stage.g_prime.arity - stage.s):
        w = width({v[i] for _, v in moved})
        if w > 1:
            return f"component {i} has range width {w}"
    return ""


def _compose_moves(g: PartialFn, stages: list) -> PartialFn:
    """The stages' inner maps composed in sweep order over dom(g): each
    tuple followed through every stage's ``moved``.

    Only moved tuples are followed.  A stage moves tuples of the g it
    sweeps: each is a tuple of dom(g) that no stage moved before, or an
    image so far, a pick, which its stage recorded as moved onto itself.
    So each stage advances the images it moves, then starts the tuples it
    moves for the first time.
    """
    image: dict = {}
    for stage in stages:
        moved = stage.moved
        for u, v in image.items():
            if v in moved:
                image[u] = moved[v]
        for u, target in moved.items():
            image.setdefault(u, target)
    graph = {u: image.get(u, u) for u in g.graph}
    return PartialFn._trusted(g.arity, graph, g.arity)


def hereditary_decompose(g: PartialFn, theta: int) -> DecompositionTrace:
    """Sweep all subsets S (by size, then lexicographic) with strong steps.

    The final g' is hereditarily thrifty at theta and g = g' o h for the
    composed inner map h.
    """
    current = g
    stages = []
    for s in all_subsets(sorted(g.arity)):
        stage = strong_decompose_stage(current, s, theta)
        stages.append(stage)
        current = stage.g_prime
    return DecompositionTrace(
        theta=theta, stages=stages, g_prime=current,
        h_composed=_compose_moves(g, stages),
    )


def verify_decomposition(g: PartialFn, trace: DecompositionTrace) -> dict:
    """Independently re-check every invariant of a decomposition trace,
    including that each stage's inner map is width-harmless and that the
    composed inner map is the composition of the stages' maps.

    Lemma: if the stages' S are exactly `all_subsets` of the arity, in
    order, and every stage passes, the final g' is hereditarily thrifty.
    Each fiber of it at a stage's S lies in that stage's fiber (the "g'
    contained in g" chain), which "fibers thrifty" checked, and restriction
    never raises a least bound.  So that coverage check replaces a sweep.
    """
    checks = Checklist()
    current = g
    for stage in trace.stages:
        label = f"S={sorted(stage.s)}"
        checks.add(f"{label}: g' contained in g",
                   stage.g_prime.is_subfunction_of(current))
        moved, g_prime = stage.moved, stage.g_prime.graph
        exact = moved.keys() <= current.graph.keys() and all(
            g_prime.get(moved.get(u, u)) == v
            for u, v in current.graph.items())
        checks.add(f"{label}: exact recomposition", exact,
                   "" if exact else "graphs differ")
        wasteful = [c for c, bounds in
                    fiber_bounds(stage.g_prime, stage.s).items()
                    if max(bounds.values()) > trace.theta]
        checks.add(f"{label}: fibers thrifty", not wasteful,
                   f"fiber {wasteful[0]!r}" if wasteful else "")
        checks.add(f"{label}: selection width",
                   tuple_set_width(stage.selection.a_set) <= 1)
        failure = _inner_map_failure(stage)
        checks.add(f"{label}: inner-map certificates", not failure, failure)
        current = stage.g_prime

    checks.add("final g' is the last stage's", current == trace.g_prime)
    checks.add("composed inner map is the stages' composition",
               _compose_moves(g, trace.stages) == trace.h_composed)
    final = compose(trace.g_prime, trace.h_composed)
    checks.add("composed inner map recovers g", final == g)
    checks.add("final g' hereditarily thrifty",
               [stage.s for stage in trace.stages]
               == all_subsets(sorted(g.arity)))
    return {"passed": checks.passed, "checks": checks.checks}
