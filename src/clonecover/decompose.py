"""Rewriting a function as (hereditarily thrifty part) composed with an
inner map certified componentwise to be width-harmless.

The driver is `hereditary_decompose`, which sweeps all subsets S of the
index set; each sweep is a `strong_decompose_stage` step: split every fiber
into its thrifty and wasteful parts, re-route the wasteful parts through
freshly selected representative tuples of a width-1 set A, and shrink the
inner map back onto dom(g).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .analysis import (
    Checklist,
    all_subsets,
    classify_preimages,
    is_hereditarily_thrifty,
    tuple_set_width,
    width,
)
from .core import (
    IndexSet,
    MTuple,
    PartialFn,
    compose,
    disjoint_union,
    fibers,
    hash_fn,
    shrink_inner,
    star_fn,
)


class AdmissibilityError(RuntimeError):
    """A choice step of the construction ran out of suitable tuples."""


@dataclass
class ComponentCertificate:
    """Evidence that one component of one part of an inner map is harmless.

    kind "projection": the component returns the input's own component on
    the certified sub-domain.  kind "width1-range": the component's range on
    the certified sub-domain has width at most 1.
    """

    component: int
    kind: str  # "projection" | "width1-range"
    part: str  # "identity-part" | "selection-part"
    observed_width: Optional[int]
    passed: bool


@dataclass
class SelectionResult:
    """Outcome of the representative-tuple selection over a wasteful family.

    Chosen tuples are pairwise y-disjoint, so their union A has width <= 1;
    each g' part is the (injective) restriction of its input to its chosen
    tuples, and each h part re-routes the input's whole domain onto them.
    """

    a_set: frozenset  # the width-1 set A
    chosen: dict  # (fiber key c, value d) -> chosen tuple
    g_primes: dict  # c -> injective PartialFn (restriction of the input)
    h_parts: dict  # c -> tuple-valued PartialFn with range inside A


def countable_selection(wasteful_family: Mapping[MTuple, PartialFn],
                        theta: int) -> SelectionResult:
    """Pick one representative tuple per (fiber key, value) pair.

    Deterministic greedy: fiber keys in canonical order, values by (line,
    column); within a preimage only tuples whose every component y-coordinate
    is below theta and unused so far are eligible, and among those the one
    with the largest minimal component y (ties broken canonically) is taken.
    The theta cap keeps each chosen singleton preimage thrifty at theta.
    """
    used_ys: set = set()
    chosen: dict = {}
    g_primes: dict = {}
    h_parts: dict = {}
    a_set: set = set()
    for c in sorted(wasteful_family):
        w_c = wasteful_family[c]
        preimages: dict = {}
        for u, v in w_c.graph.items():
            preimages.setdefault(v, []).append(u)
        picked_for_c: dict = {}
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
            pick = max(candidates, key=lambda u: (u.min_y(), u.entries))
            used_ys.update(p.y for p in pick.points())
            chosen[(c, d)] = pick
            picked_for_c[d] = pick
            a_set.add(pick)
        g_primes[c] = w_c.restrict(picked_for_c.values())
        h_parts[c] = PartialFn.tuple_valued(
            w_c.arity,
            w_c.arity,
            {u: picked_for_c[v] for u, v in w_c.graph.items()},
        )
    return SelectionResult(
        a_set=frozenset(a_set),
        chosen=chosen,
        g_primes=g_primes,
        h_parts=h_parts,
    )


@dataclass
class StageRecord:
    """One strong-decomposition sweep for a fixed argument subset S."""

    s: IndexSet
    g_prime: PartialFn
    h: PartialFn
    selection: SelectionResult
    identity_domain: frozenset  # tuples routed through unchanged
    certificates: list  # ComponentCertificate per component and part


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
    of g' at S is all-thrifty.
    """
    s = frozenset(s)
    if not s <= g.arity:
        raise ValueError(f"S={sorted(s)} not inside arity {sorted(g.arity)}")
    empty_selection = SelectionResult(frozenset(), {}, {}, {})
    if not g.graph:
        ident = PartialFn.identity_on([], g.arity)
        return StageRecord(s=s, g_prime=g, h=ident, selection=empty_selection,
                           identity_domain=frozenset(), certificates=[])

    wasteful_family: dict = {}
    thrifty_parts: dict = {}
    for c, g_c in fibers(g, s).items():
        report = classify_preimages(g_c, theta)
        thrifty_parts[c] = g_c.restrict(report.thrifty_domain)
        if report.wasteful_domain:
            wasteful_family[c] = g_c.restrict(report.wasteful_domain)

    selection = countable_selection(wasteful_family, theta)

    g_parts = []
    h_parts = []
    identity_domain: set = set()
    t = g.arity - s
    for c, t_c in thrifty_parts.items():
        i_c = PartialFn.identity_on(t_c.domain(), t)
        fiber_g = [t_c]
        fiber_h = [i_c]
        if c in wasteful_family:
            fiber_g.append(selection.g_primes[c])
            fiber_h.append(selection.h_parts[c])
        g_parts.append(star_fn(c, disjoint_union(fiber_g)))
        h_parts.append(hash_fn(c, disjoint_union(fiber_h)))
        identity_domain.update(c.union(z) for z in t_c.domain())

    g_prime = disjoint_union(g_parts)
    h_prime = disjoint_union(h_parts)
    h = shrink_inner(g, g_prime, h_prime)
    ident = frozenset(identity_domain) & h.domain()
    certs = _certify_inner_map(h, ident, selection, s)
    return StageRecord(s=s, g_prime=g_prime, h=h, selection=selection,
                       identity_domain=ident, certificates=certs)


def _certify_inner_map(h: PartialFn, identity_domain: frozenset,
                       selection: SelectionResult, s: IndexSet) -> list:
    """Componentwise certificates for one stage's inner map.

    Identity-part components and S-indexed components are projections; the
    remaining components of the selection part land in a projection of the
    width-1 set A.
    """
    certs = []
    selection_domain = h.domain() - identity_domain
    for i in sorted(h.arity):
        ok = all(h.graph[u][i] == u[i] for u in identity_domain)
        certs.append(ComponentCertificate(
            component=i, kind="projection", part="identity-part",
            observed_width=None, passed=ok,
        ))
        if i in s:
            ok = all(h.graph[u][i] == u[i] for u in selection_domain)
            certs.append(ComponentCertificate(
                component=i, kind="projection", part="selection-part",
                observed_width=None, passed=ok,
            ))
        else:
            ran = {h.graph[u][i] for u in selection_domain}
            w = width(ran).width
            certs.append(ComponentCertificate(
                component=i, kind="width1-range", part="selection-part",
                observed_width=w, passed=w <= 1,
            ))
    return certs


def hereditary_decompose(g: PartialFn, theta: int) -> DecompositionTrace:
    """Sweep all subsets S (by size, then lexicographic) with strong steps.

    The final g' is hereditarily thrifty at theta and g = g' o h for the
    composed inner map h.
    """
    current = g
    h_total = PartialFn.identity_on(g.domain(), g.arity)
    stages = []
    for s in all_subsets(sorted(g.arity)):
        stage = strong_decompose_stage(current, s, theta)
        stages.append(stage)
        h_total = compose(stage.h, h_total)
        current = stage.g_prime
    return DecompositionTrace(
        theta=theta, stages=stages, g_prime=current, h_composed=h_total,
    )


def verify_decomposition(g: PartialFn, trace: DecompositionTrace) -> dict:
    """Independently re-check every invariant of a decomposition trace."""
    checks = Checklist()
    current = g
    for stage in trace.stages:
        label = f"S={sorted(stage.s)}"
        checks.add(f"{label}: g' contained in g",
                   stage.g_prime.is_subfunction_of(current))
        recomposed = compose(stage.g_prime, stage.h)
        checks.add(f"{label}: exact recomposition",
                   recomposed == current,
                   "" if recomposed == current else "graphs differ")
        for c, g_c in fibers(stage.g_prime, stage.s).items():
            rep = classify_preimages(g_c, trace.theta)
            if not rep.all_thrifty:
                checks.add(f"{label}: fiber thrifty", False, f"fiber {c!r}")
                break
        else:
            checks.add(f"{label}: fibers thrifty", True)
        checks.add(f"{label}: selection width",
                   tuple_set_width(stage.selection.a_set) <= 1)
        checks.add(f"{label}: inner-map certificates",
                   all(c.passed for c in stage.certificates))
        current = stage.g_prime

    checks.add("final g' is the last stage's", current == trace.g_prime)
    final = compose(trace.g_prime, trace.h_composed)
    checks.add("composed inner map recovers g", final == g)
    checks.add("final g' hereditarily thrifty",
               is_hereditarily_thrifty(trace.g_prime, trace.theta).all_thrifty)
    return {"passed": checks.passed, "checks": checks.checks}
