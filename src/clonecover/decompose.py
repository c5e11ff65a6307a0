"""Rewriting a function as (hereditarily thrifty part) composed with a
width-harmless inner map.

The driver is `hereditary_decompose`, which sweeps all subsets S of the
index set; each sweep is a `strong_decompose_stage` step: re-route the
wasteful part of every fiber (`analysis.wasteful_pairs`) through freshly
selected representative tuples of a width-1 set A, and write g' and the
moved tuples of the inner map h in one pass over g.  h fixes every other
tuple, so a stage records only what it moves.
`verify_decomposition` re-checks a trace from its graphs alone, the
width-harmlessness of every inner map included.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .analysis import Checklist, all_subsets, wasteful_pairs, width
from .core import IndexSet, MTuple, PartialFn, Point, compose


class AdmissibilityError(RuntimeError):
    """A choice step of the construction ran out of suitable tuples."""


def countable_selection(wasteful: Mapping[MTuple, Mapping[Point, list]],
                        theta: int) -> dict:
    """Pick one representative tuple per (fiber key c, value d) pair.

    `wasteful` maps each fiber key c to its wasteful values, and each value
    to the non-S parts of its preimage in that fiber: {c: {v: [z, ...]}}.
    Deterministic greedy: fiber keys in canonical order, values by (line,
    column); within a preimage only tuples whose every component y-coordinate
    is below theta and unused so far are eligible, and among those the one
    with the largest minimal component y (ties broken canonically) is taken.
    Returns ``{(c, d): pick}``.  The picks are pairwise y-disjoint, so their
    set A has width <= 1; the theta cap keeps each pick's singleton preimage
    thrifty at theta.  A stage keeps only the pick of each wasteful value in
    g' and re-routes the value's whole preimage onto it.
    """
    used_ys: set = set()
    chosen: dict = {}
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
            pick = max(candidates, key=lambda u: (min(p.y for _, p in u), u))
            used_ys.update(p.y for p in pick.points())
            chosen[(c, d)] = pick
    return chosen


@dataclass
class StageRecord:
    """One strong-decomposition sweep for a fixed argument subset S; its
    inner map h sends u to ``moved.get(u, u)``, fixing every other tuple.
    Each pick's tuple c ∪ pick moves onto itself, so the picks are exactly
    the non-S parts of the targets."""

    s: IndexSet
    g_prime: PartialFn
    moved: dict  # each re-routed u = c ∪ z, picks included -> c ∪ pick


@dataclass
class DecompositionTrace:
    """The full sweep over all subsets S, plus the composed inner map."""

    theta: int
    stages: list  # StageRecord, in sweep order
    g_prime: PartialFn
    h_composed: dict  # each u of dom(g) -> its image, a tuple of dom(g')


def strong_decompose_stage(g: PartialFn, s: IndexSet, theta: int) -> StageRecord:
    """One sweep: make every fiber of g at S thrifty at theta.

    The record's g' is contained in g, g = g' o h exactly, and every fiber
    of g' at S is all-thrifty.  The (c, v) pairs to reroute are the keys
    of `wasteful_pairs`, so only the entries whose value is wasteful
    somewhere get a fiber key c here.  An entry u -> v whose (c, v) is
    wasteful adds its non-S part to the `countable_selection` input and,
    once the pick for (c, v) is known, moves to c∪pick, only the pick
    keeping its g' entry; every other entry keeps u in g' and h fixes it.
    g' lists g's thrifty entries in g's order, then the picks in g's
    order; it is wrapped unchecked, as its entries come from g.
    """
    s = frozenset(s)
    if theta < 1:
        raise ValueError("theta must be at least 1")
    wasted = wasteful_pairs(g, s, theta)
    suspects = {v for _, v in wasted}
    rerouted = [(u, v, c) for u, v in g.graph.items() if v in suspects
                for c in [u.restrict(s)] if (c, v) in wasted]
    wasteful, g_graph = {}, dict(g.graph)
    for u, v, c in rerouted:
        wasteful.setdefault(c, {}).setdefault(v, []).append(u.without(s))
        del g_graph[u]
    selection = countable_selection(wasteful, theta)
    moved = {u: c.union(selection[c, v]) for u, v, c in rerouted}
    # the picks' entries go back in after every thrifty one, in g's order
    g_graph.update((u, v) for u, v, _ in rerouted if moved[u] == u)
    return StageRecord(s=s, g_prime=PartialFn._trusted(g.arity, g_graph),
                       moved=moved)


def _inner_map_failure(stage: StageRecord) -> str:
    """Why one stage's inner map is not width-harmless; "" when it is.

    h fixes every tuple outside ``moved``; on the moved ones, every
    S-indexed component is a projection and every other component's range
    has width at most 1: the targets' non-S parts are the stage's picks,
    so this is also the width check on the selected set A.
    """
    moved = stage.moved.items()
    if any(v.restrict(stage.s) != u.restrict(stage.s) for u, v in moved):
        return "S-component not a projection"
    for i in sorted(stage.g_prime.arity - stage.s):
        w = width({v[i] for _, v in moved})
        if w > 1:
            return f"component {i} has range width {w}"
    return ""


def _compose_moves(g: PartialFn, stages: list) -> dict:
    """The stages' inner maps composed in sweep order over dom(g), as the
    plain map from each tuple to its image: each tuple followed through
    every stage's ``moved``.

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
    return {u: image.get(u, u) for u in g.graph}


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


def verify_decomposition(g: PartialFn, trace: DecompositionTrace) -> Checklist:
    """Independently re-check every invariant of a decomposition trace,
    including that each stage's inner map is width-harmless and that the
    composed inner map is the composition of the stages' maps.

    Lemma: if the stages' S are exactly `all_subsets` of the arity, in
    order, and every stage passes, the final g' is hereditarily thrifty.
    Each fiber of it at a stage's S lies in that stage's fiber (the "g'
    contained in g" chain), where "fibers thrifty" found no `wasteful_pairs`,
    and restriction never raises a least bound.  So that coverage check
    replaces a sweep.
    """
    checks = Checklist()
    current = g
    for stage in trace.stages:
        label = f"S={sorted(stage.s)}: "
        checks.add(label + "g' contained in g",
                   stage.g_prime.is_subfunction_of(current))
        moved, g_prime = stage.moved, stage.g_prime.graph
        exact = moved.keys() <= current.graph.keys() and all(
            g_prime.get(moved.get(u, u)) == v
            for u, v in current.graph.items())
        checks.add(label + "exact recomposition", exact, "graphs differ")
        wasted = wasteful_pairs(stage.g_prime, stage.s, trace.theta)
        checks.add(label + "fibers thrifty", not wasted,
                   f"fiber {min(wasted)[0]!r}" if wasted else "")
        failure = _inner_map_failure(stage)
        checks.add(label + "inner-map certificates", not failure, failure)
        current = stage.g_prime

    checks.add("final g' is the last stage's", current == trace.g_prime)
    checks.add("composed inner map is the stages' composition",
               _compose_moves(g, trace.stages) == trace.h_composed)
    final = compose(trace.g_prime, trace.h_composed)
    checks.add("composed inner map recovers g", final == g)
    checks.add("final g' hereditarily thrifty",
               [stage.s for stage in trace.stages]
               == all_subsets(sorted(g.arity)))
    return checks


def check_admissible(g: PartialFn, theta: int,
                     checks: Checklist) -> Optional[DecompositionTrace]:
    """`hereditary_decompose` g, its outcome added to checks as the
    "decomposition admissible" check: the trace, or None when a choice
    step ran out of tuples."""
    trace, detail = None, ""
    try:
        trace = hereditary_decompose(g, theta)
    except AdmissibilityError as exc:
        detail = str(exc)
    checks.add("decomposition admissible", trace is not None, detail)
    return trace


def check_contracts(g: PartialFn, trace: DecompositionTrace,
                    checks: Checklist) -> None:
    """Add the "decomposition contracts" check: every check of
    `verify_decomposition` passes; the detail names the failing ones."""
    contracts = verify_decomposition(g, trace)
    checks.add("decomposition contracts", contracts.passed,
               ", ".join(c["name"] for c in contracts.failing))
