"""Witness normalization and term synthesis for hereditarily thrifty
functions, plus the width certificates for the assembled selector table.

The shape of the construction: a unary witness is normalized so that the
encoded input (0 | n (+) k) maps exactly to (k | n); a family of width-1
helper maps h^{S,j} encodes, for every argument slot, the pair (per-fiber
line bound, argument line) through the same injective code; and a selector
table Q recovers the target value from the input together with the witness's
outputs on the helpers.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import add
from typing import Iterable, Mapping, Optional, Sequence

from .analysis import (Checklist, NotThriftyError, all_subsets, fiber_k,
                       index_columns, wasteful_pairs, width)
from .core import (
    App,
    AtomBinding,
    CI_ATOM,
    IndexMismatchError,
    IndexSet,
    MTuple,
    ORIGIN,
    PartialFn,
    Point,
    Proj,
    Term,
    WITNESS_ATOM,
    full_index,
)
from .decompose import AdmissibilityError, DecompositionTrace, hereditary_decompose


def oplus(n: int, k: int) -> int:
    """The injective pair code n^2 + k, defined for k < n."""
    if not 0 <= k < n:
        raise ValueError(f"oplus requires 0 <= k < n, got n={n}, k={k}")
    return n * n + k


# -- unary reduction --------------------------------------------------


def width1_slices(points: Iterable[Point]) -> list:
    """Split a point set into width-1 slices (t-th point per line, by x)."""
    slices: dict = {}  # t -> the points t-th on their line
    placed: dict = {}  # line -> the t of its last point so far
    for p in sorted(points):
        t = placed[p.y] = placed.get(p.y, -1) + 1
        slices.setdefault(t, []).append(p)
    return list(map(frozenset, slices.values()))


def reduce_to_unary(f: PartialFn, candidates: Sequence[PartialFn]) -> PartialFn:
    """Search for a unary composite of f with the candidates that visibly
    blows up width.

    An f of arity below 2 is returned as is; normalization judges it.
    Otherwise candidate tuples are tried in lexicographic order; the first
    composite mapping some width-1 slice of its domain to an image of width
    above 1 is returned.  Exhaustion is an error (the candidate set simply
    contained no witness), not a refutation.  f is looked up over whole
    columns, at plain (index, point) rows that hash like `MTuple`s, where
    (index, None) is never a key; composites are wrapped unchecked.
    """
    if len(f.arity) < 2:
        return f
    arity = sorted(f.arity)
    for c in candidates:
        if sorted(c.arity) != [1]:
            raise IndexMismatchError("candidates must be unary point-valued")
    sorted_graphs = [(sorted(c.graph), c.graph) for c in candidates]
    unary = full_index(1)
    for combo in itertools.product(sorted_graphs, repeat=len(arity)):
        domain = combo[0][0]
        rows = zip(*[zip(itertools.repeat(i), map(cg.get, domain))
                     for i, (_, cg) in zip(arity, combo)])
        composite = PartialFn._trusted(unary, {
            d: v for d, v in zip(domain, map(f.graph.get, rows))
            if v is not None})
        if _has_width_blowup(composite):
            return composite
    raise AdmissibilityError("no unary witness in candidate set")


def _has_width_blowup(p: PartialFn) -> bool:
    """Some width-1 slice of dom(p) maps to an image of width above 1."""
    value_at = {d: v for ((_, d),), v in p.graph.items()}
    return any(width(map(value_at.__getitem__, sl)) > 1
               for sl in width1_slices(value_at))


# -- normalization ----------------------------------------------------


@dataclass
class NormalizedWitness:
    """The relabelings that bring a unary witness into the
    (0 | n (+) k) |-> (k | n) shape of f* (`normal_witness`).

    ``relabel_domain`` sends each code n (+) k to the original preimage of
    the normalized input (0 | n (+) k), ``line_map`` and ``row_map`` are
    the (injective) output relabelings: mapped by them, the witness at
    ``relabel_domain[n (+) k]`` is (k | n), f*'s entry there.
    """

    relabel_domain: dict  # int code n(+)k -> original domain Point
    line_map: dict  # original line index -> normalized line index
    row_map: dict  # original row index -> normalized row index


# Point from an (x, y) pair, without the namedtuple's Python-level __new__
_point = functools.partial(tuple.__new__, Point)


def normal_witness(horizon: int) -> PartialFn:
    """The normalized witness f*: (0 | n (+) k) |-> (k | n) for k < n <
    horizon, in (n, k) order after the harmless (0|0) |-> (0|0) entry."""
    ns = [n for n in range(1, horizon) for _ in range(n)]
    ks = [k for n in range(1, horizon) for k in range(n)]
    codes = map(_point, zip(itertools.repeat(0),
                            [n * n + k for n, k in zip(ns, ks)]))  # n (+) k
    graph = {MTuple(((1, ORIGIN),)): ORIGIN}
    graph.update(zip(map(MTuple, zip(zip(itertools.repeat(1), codes))),
                     map(_point, zip(ks, ns))))
    return PartialFn._trusted(full_index(1), graph)


def normalize_f(f_unary: PartialFn, horizon: int) -> NormalizedWitness:
    """Permute lines, rows, and domain labels so the witness satisfies the
    normalized shape for all k < n < horizon.

    f* depends on the horizon only (`normal_witness`) and is not built
    here; the witness decides the relabelings and whether they exist.
    Deterministic choices: target lines are filled from the largest demand
    down, each taking the smallest-label unused image line with enough
    points; points within a line are ordered by x, and each point's
    preimage is its least-y one.  The chosen lines' first n points are
    checked in (n, k) order, f*'s entry order, each preimage keyed by its
    code n (+) k.
    """
    if sorted(f_unary.arity) != [1]:
        raise IndexMismatchError("witness must be unary and point-valued")
    if horizon < 2:
        raise ValueError("horizon must be at least 2")

    # image point -> its least-y preimage, the first in graph order on a tie
    pre_of: dict = {}
    for ((_, d),), v in f_unary.graph.items():
        if v not in pre_of or d.y < pre_of[v].y:
            pre_of[v] = d
    # image line -> list of (point, preimage), points ordered by x
    by_line: dict = {}
    for vd in pre_of.items():
        by_line.setdefault(vd[0].y, []).append(vd)
    for pts in by_line.values():
        pts.sort()

    free_lines = sorted(by_line)
    chosen_line: dict = {}
    for n in range(horizon - 1, 0, -1):
        line = next((l for l in free_lines if len(by_line[l]) >= n), None)
        if line is None:
            raise AdmissibilityError(
                f"no unused image line with at least {n} points"
            )
        free_lines.remove(line)
        chosen_line[n] = line

    line_map = {chosen_line[n]: n for n in range(1, horizon)}
    row_map: dict = {}
    relabel_domain: dict = {}
    for n in range(1, horizon):
        for k, (v, d) in enumerate(by_line[chosen_line[n]][:n]):
            if d.x != 0:
                raise AdmissibilityError(
                    f"witness preimage {d!r} is off the x=0 column"
                )
            if row_map.setdefault(v.x, k) != k:
                raise AdmissibilityError(
                    f"row {v.x} cannot be relabeled consistently"
                )
            relabel_domain[n * n + k] = d  # n (+) k

    return NormalizedWitness(
        relabel_domain=relabel_domain,
        line_map=line_map,
        row_map=row_map,
    )


# -- the (S, j) index and helper family -------------------------------


@functools.cache
def factor_keys(m: int) -> tuple:
    """The selector's inputs in slot order: the indices 1..m, then the
    pairs (frozenset S, j) with j outside S, S in `all_subsets` order and
    j ascending.  The key at position t occupies slot t + 1."""
    indices = range(1, m + 1)
    return tuple(indices) + tuple(
        (s, j) for s in all_subsets(indices) for j in indices if j not in s)


def fiber_k_tables(q: PartialFn, theta: int) -> tuple:
    """Every tuple's K at every S short of the arity, and every z_i^y:
    ``(entry_k, ys)``, ``entry_k[S]`` and ``ys[i]`` columns in q's graph
    order, which `build_h_family` zips.  A tuple's K at S is the largest
    `tuple_bounds` entry among the tuples of its fiber whose value lies on
    its value's line.  At S = the arity every K is 0; no reader asks.

    One transpose of dom(q) (`index_columns`), then one pass per S that
    builds no fiber key: each tuple's (fiber, value line) pair has an int
    id, the first position holding the pair of its id at S less S's
    largest index j and its j-entry (at S = {}, of its value line); an
    id's largest bound is the K of its tuples.

    theta < 1 on a non-empty q raises ValueError.  A bound above theta
    raises NotThriftyError at the first such S, naming the least pair of
    `wasteful_pairs` there: the least wasteful value in the least wasteful
    fiber, and that value's largest bound in the fiber.
    """
    if theta < 1 and q.graph:
        raise ValueError("theta must be at least 1")
    columns = index_columns(q)
    ys = {i: [p.y for _, p in c] for i, c in columns.items()}
    tops = {i: [y + 1 for y in c] for i, c in ys.items()}
    n, values = len(q.graph), q.graph.values()
    line_ids = list(map({}.setdefault, (v.y for v in values), range(n)))
    ids_at, entry_k = {frozenset(): line_ids}, {}
    for s in all_subsets(sorted(q.arity))[:-1]:
        if s:  # ids at S from those at S less j
            j = max(s)
            ids_at[s] = list(map({}.setdefault,
                                 zip(ids_at[s - {j}], columns[j]), range(n)))
        ids = ids_at[s]
        outside = [low for i, low in tops.items() if i not in s]
        bounds = list(map(min, *outside)) if len(outside) > 1 else outside[0]
        if max(bounds, default=theta) > theta:
            wasted = wasteful_pairs(q, s, theta)  # {(fiber key, value): k}
            raise NotThriftyError(min(wasted)[1], wasted[min(wasted)], theta)
        top = [0] * n
        for f, k in zip(ids, bounds):
            if top[f] < k:
                top[f] = k
        entry_k[s] = list(map(top.__getitem__, ids))
    return entry_k, ys


class _HelperPoints(dict):
    """(K, z_j^y) -> a helper's value there, coded on its first read."""

    def __missing__(self, pair):
        big_k, y = pair
        point = self[pair] = Point(0, oplus(big_k, y)) if y < big_k else ORIGIN
        return point


def build_h_family(q: PartialFn, keys: tuple, k_columns: tuple) -> dict:
    """The helper maps h^{S,j}, one per (S, j) pair of ``keys`` past the
    inputs, in key order, each total over dom(q).

    For u = c (union) z in dom(q): (0 | K (+) z_j^y) when z_j's line index
    lies below the fiber's bound K at q(u)'s line, and (0|0) otherwise: the
    paper's bar extension, stated only here, for the selector and the term
    to read.  The range sits in the x = 0 row, hence has width 1: a code
    K (+) z is at least 1, so (0|0) is alone on line 0.

    Each helper zips its S's K column and its j's y-column from
    ``k_columns`` (`fiber_k_tables` of q), so it lists dom(q) in q's graph
    order, which `build_Q` reads; each distinct (K, z_j^y) is coded once.
    """
    (entry_k, ys), family, point_of = k_columns, {}, _HelperPoints()
    for s, j in keys[len(q.arity):]:
        family[s, j] = PartialFn._trusted(q.arity, dict(zip(q.graph, map(
            point_of.__getitem__, zip(entry_k[s], ys[j])))))
    return family


def build_Q(q: PartialFn, h_family: Mapping, f_star: PartialFn,
            keys: tuple) -> PartialFn:
    """The selector table: defined at (u, v) exactly when every v-slot equals
    the witness's output on the corresponding helper at u; value q(u).

    Column-wise in q's graph order: every helper lists dom(q) in that
    order (`build_h_family`), so a slot's column is its helper's values,
    and f* is looked up once per distinct value.  A value outside dom(f*)
    raises AdmissibilityError, the first in q's graph order, then slot
    order.  The table is wrapped unchecked: its keys extend q's checked
    tuples by the slots in ascending order, and its slot values are f*'s
    own points.
    """
    m = len(q.arity)
    witness = f_star.graph
    helpers = [list(h_family[pair].graph.values()) for pair in keys[m:]]
    columns, undefined = [], False
    for slot, outputs in enumerate(helpers, m + 1):
        entry_of = {hv: (slot, witness.get(((1, hv),)))
                    for hv in set(outputs)}
        undefined |= any(out is None for _, out in entry_of.values())
        columns.append(list(map(entry_of.get, outputs)))
    if undefined:
        hv = next(hv for row in zip(*helpers) for hv in row
                  if ((1, hv),) not in witness)
        raise AdmissibilityError(
            f"witness not defined at helper output {hv!r}; horizon too small")
    rows = list(zip(*columns)) or [()] * len(q.graph)
    graph = dict(zip(map(MTuple, map(add, q.graph, rows)), q.graph.values()))
    return PartialFn._trusted(full_index(len(keys)), graph)


# -- term assembly ----------------------------------------------------

SELECTOR_ATOM = "Q"
WITNESS_NAME = "f*"


def helper_name(s: IndexSet, j: int) -> str:
    return "h[{{{}}},{}]".format(",".join(map(str, sorted(s))), j)


def assemble_term(q: PartialFn, f_star: PartialFn, h_family: Mapping,
                  q_table: PartialFn, keys: tuple, inner: dict) -> Term:
    """The synthesized term for g = q o inner: the selector applied to the
    inner-map components and the witness's outputs on the helpers at those
    components.  ``inner`` is the composed inner map, each u of dom(g) to
    its image; component i sends u to the image's point at i.  The helpers
    are bound as built: `build_h_family` already gives them the (0|0)
    value off their bound, over all of dom(q)."""
    env = {
        SELECTOR_ATOM: AtomBinding(q_table, CI_ATOM),
        WITNESS_NAME: AtomBinding(f_star, WITNESS_ATOM),
    }
    projections = tuple(Proj(i) for i in sorted(q.arity))
    for i in sorted(q.arity):
        env[f"inner[{i}]"] = AtomBinding(PartialFn._trusted(
            q.arity, {u: v[i] for u, v in inner.items()}), CI_ATOM)
    args = tuple(App(f"inner[{i}]", projections) for i in sorted(q.arity))
    children = list(args)
    for s, j in keys[len(q.arity):]:
        name = helper_name(s, j)
        env[name] = AtomBinding(h_family[(s, j)], CI_ATOM)
        children.append(App(WITNESS_NAME, (App(name, args),)))
    root = App(SELECTOR_ATOM, tuple(children))
    return Term(root=root, env=env, arity=q.arity)


# -- width certificates for the selector ------------------------------


def _in_product(uv: MTuple, factors: Sequence) -> bool:
    """Whether each slot of uv lies in its width-1 factor, a line -> column
    map read as column 0 on a line it does not list; ``factors`` in slot
    order, one per slot of uv, as `main_lemma_certify` checks once."""
    for factor, (_, (x, y)) in zip(factors, uv):
        if factor.get(y, 0) != x:
            return False
    return True


@dataclass
class SelectorWidthVerdict:
    """The selector's exact worst image width over width-1 products, the
    main lemma's bound m!, and a value line with one table entry per column
    that reach the worst width in one product."""

    bound: int
    observed: int
    line: Optional[int]  # None for an empty table
    entries: tuple


def verify_Q_in_CI(q_table: PartialFn, m: int) -> SelectorWidthVerdict:
    """The selector's exact worst image width over every product of width-1
    factors, one per input index and per (S, j) pair, against the main
    lemma's bound m!.

    An entry uv lies in a product exactly when each uv[slot] lies in its
    factor, so a set of entries lies in one product exactly when it puts at
    most one column on each (slot, line); the worst width is the most value
    columns on one line such a set reaches.  Lines with the most columns
    are searched first, while they can beat the best found.

    Width 2 follows without a search: a width-2 factor is the union of two
    width-1 slices, so a product of K width-2 factors is the union of the
    2^K products of their slices.  Image width is subadditive under union,
    so when this check passes every width-2 product maps to width at most
    2^K * m!, the width-2 bound.
    """
    bound = math.factorial(m)
    by_line: dict = {}  # value line -> value column -> entries, sorted
    for uv in sorted(q_table.graph):
        val = q_table.graph[uv]
        by_line.setdefault(val.y, {}).setdefault(val.x, []).append(uv)
    line, best = None, ()
    for n, columns in sorted(by_line.items(),
                             key=lambda item: (-len(item[1]), item[0])):
        if len(columns) <= len(best):
            break
        found = _widest_fit([columns[x] for x in sorted(columns)], {}, (),
                            len(best))
        if found:
            line, best = n, found
    return SelectorWidthVerdict(bound=bound, observed=len(best), line=line,
                                entries=best)


def _widest_fit(candidates: list, used: dict, taken: tuple,
                floor: int) -> tuple:
    """The most entries, ``taken`` and at most one from each later entry
    list, that put at most one column on each (slot, line), whose column so
    far ``used`` maps it to; () unless that beats ``floor``.

    Taking an entry only fills (slot, line)s, so each branch keeps just the
    later lists' fitting entries, and it is cut when the entries taken plus
    the lists left cannot beat the best found.
    """
    best = taken if len(taken) > floor else ()
    for at, entries in enumerate(candidates):
        if len(taken) + len(candidates) - at <= max(floor, len(best)):
            break
        for uv in entries:
            grown = dict(used)
            for i, p in uv:
                grown[i, p.y] = p.x
            rest = [kept for kept in (
                [e for e in later
                 if all(grown.get((i, p.y), p.x) == p.x for i, p in e)]
                for later in candidates[at + 1:]) if kept]
            best = _widest_fit(rest, grown, taken + (uv,),
                               max(floor, len(best))) or best
    return best


def spanned_family(entries: Sequence[MTuple], m: int) -> dict:
    """The width-1 factor family that agreeing selector entries span: for
    each factor key, the line -> column map of the entries' points in its
    slot.  Lines it does not list read as column 0, the (0|0) convention
    that `build_h_family` applies to the helpers."""
    keys, family = factor_keys(m), {}
    columns = list(zip(*entries)) if entries else [()] * len(keys)
    for key, column in zip(keys, columns, strict=True):
        factor = family[key] = {}
        for _, (x, y) in column:
            if factor.setdefault(y, x) != x:
                raise ValueError(
                    f"factor {key!r} has width above 1 on line {y}")
    return family


@dataclass
class UniquenessReport:
    """Per-(line, permutation) candidate tuple and the enumeration check,
    for a pair some table entry in the product qualifies under."""

    line: int
    perm: tuple
    candidate: dict  # index -> Point (may be partial when a K is missing)
    qualifying: tuple  # the (u, v) tuples found by brute force, never empty
    detail: str  # why the check fails; "" when it passes


def main_lemma_certify(q_table: PartialFn, factors: Mapping, m: int) -> list:
    """Uniqueness certificates over one product of width-1 factors, one
    per (value line n, reindexing perm of 1..m) pair, ascending, that some
    table entry in the product qualifies under: its lines rise along perm.
    Every other pair could only pass vacuously.

    The table is scanned once; each entry in the product joins the group
    of every perm it qualifies under on its value line.  Those perms sort
    its input lines: the concatenations, in line order, of a permutation
    of each group of indices on one line, so they are generated, not
    searched for among all m!.  A second scan collects the input parts of
    the lines certified: they list dom(q) one for one with q's values, so
    each K the certificates read comes from the table alone.  A table
    whose arity is not one slot per factor key raises ValueError.
    """
    in_slot_order = [factors[key] for key in factor_keys(m)]
    if len(q_table.arity) != len(in_slot_order):
        raise ValueError("the selector's arity is not one slot per key")
    groups: dict = {}  # (value line, perm) -> qualifying entries
    for uv, val in q_table.graph.items():
        if _in_product(uv, in_slot_order):
            line_of = {i: p.y for i, p in itertools.islice(uv, m)}
            tied = [tuple(group) for _, group in itertools.groupby(
                sorted(line_of, key=line_of.get), key=line_of.get)]
            for parts in itertools.product(
                    *map(itertools.permutations, tied)):
                perm = tuple(itertools.chain.from_iterable(parts))
                groups.setdefault((val.y, perm), []).append(uv)
    inputs: dict = {n: [] for n, _ in groups}  # line -> its input parts
    for uv, val in q_table.graph.items():
        if val.y in inputs:
            inputs[val.y].append(tuple(itertools.islice(uv, m)))
    return [_certify_line(inputs[n], factors, n, perm, sorted(qualifying))
            for (n, perm), qualifying in sorted(groups.items())]


def _certify_line(inputs: list, factors: Mapping, n: int, perm: tuple,
                  qualifying: list) -> UniquenessReport:
    """Compute the unique candidate input for line n under perm and check
    that the qualifying entries, sorted and at least one, are just it;
    ``inputs`` are the input parts of the table's entries on line n, index
    j at position j - 1 as Q's arity 1..len(keys) lays them out.

    The recursion, under the reindexing perm: at step j the fiber fixed so
    far, the inputs that agree with the candidate, gives a bound k_j at
    line n (`fiber_k`); the (S,j)-factor selects the line b_j at k_j, and
    the j-th input factor the column a_j at b_j, which narrows the fiber.
    """
    candidate: dict = {}
    fiber, detail = inputs, ""
    for step, j in enumerate(perm):
        s = frozenset(perm[:step])
        big_k = fiber_k(fiber, s)
        if big_k is None:
            detail = "qualifying entry despite missing K chain"
            break
        bj = factors[(s, j)].get(big_k, 0)
        candidate[j] = point = Point(factors[j].get(bj, 0), bj)
        fiber = [u for u in fiber if u[j - 1] == (j, point)]
    else:  # the last fiber holds the inputs equal to the candidate
        if len(qualifying) > 1:
            detail = "more than one qualifying entry"
        elif tuple(itertools.islice(qualifying[0], len(perm))) not in fiber:
            detail = "qualifying entry differs from candidate"
    return UniquenessReport(
        line=n, perm=perm, candidate=candidate,
        qualifying=tuple(qualifying), detail=detail,
    )


# -- end to end -------------------------------------------------------


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage tag."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"[{stage}] {cause}")

    def check(self, checks: Checklist) -> None:
        """Add this failure as the "stage:<stage>" check."""
        checks.add(f"stage:{self.stage}", False, str(self.cause))


@dataclass
class SynthesisResult:
    """Everything produced on the way to the final term."""

    trace: DecompositionTrace
    h_family: dict
    q_table: PartialFn
    term: Term


def _run_stage(stage: str, fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - retagged with the stage
        raise StageError(stage, exc) from exc


def end_to_end_synthesize(g: PartialFn, f: PartialFn, theta: int, horizon: int,
                          unary_candidates: Sequence[PartialFn] = ()
                          ) -> SynthesisResult:
    """Full pipeline: the choice stages (unary reduction, normalization,
    hereditary decomposition), then `complete_synthesis`.

    The returned term evaluates to g on every tuple of dom(g).
    """
    f = _run_stage("reduce-to-unary", reduce_to_unary, f, unary_candidates)
    _run_stage("normalize", normalize_f, f, horizon)
    trace = _run_stage("decompose", hereditary_decompose, g, theta)
    return complete_synthesis(g, horizon, trace)


def complete_synthesis(g: PartialFn, horizon: int,
                       trace: DecompositionTrace) -> SynthesisResult:
    """Helper/selector construction and term assembly from g's
    decomposition trace and the horizon, from which f* is built here, once
    per synthesis (`normal_witness`); nothing of normalization is read."""
    f_star = normal_witness(horizon)
    q = trace.g_prime
    keys = factor_keys(len(g.arity))
    k_columns = _run_stage("k-tables", fiber_k_tables, q, trace.theta)
    h_family = _run_stage("helpers", build_h_family, q, keys, k_columns)
    q_table = _run_stage("selector", build_Q, q, h_family, f_star, keys)
    term = _run_stage("assemble", assemble_term,
                      q, f_star, h_family, q_table, keys, trace.h_composed)
    return SynthesisResult(trace=trace, h_family=h_family, q_table=q_table,
                           term=term)
