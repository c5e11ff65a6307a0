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
from typing import Iterable, Mapping, Optional, Sequence

from .analysis import (all_subsets, fiber_bounds, fiber_columns, line_bounds,
                       width)
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
    by_line: dict = {}
    for p in sorted(points):
        by_line.setdefault(p.y, []).append(p)
    depth = max((len(ps) for ps in by_line.values()), default=0)
    return [
        frozenset(ps[t] for ps in by_line.values() if len(ps) > t)
        for t in range(depth)
    ]


def reduce_to_unary(f: PartialFn, candidates: Sequence[PartialFn]) -> PartialFn:
    """Search for a unary composite of f with the candidates that visibly
    blows up width.

    An f of arity below 2 is returned as is; normalization judges it.
    Otherwise candidate tuples are tried in lexicographic order; the first
    composite mapping some width-1 slice of its domain to an image of width
    above 1 is returned.  Exhaustion is an error (the candidate set simply
    contained no witness), not a refutation.
    """
    if len(f.arity) < 2:
        return f
    arity = sorted(f.arity)
    for c in candidates:
        if sorted(c.arity) != [1] or not c.is_point_valued():
            raise IndexMismatchError("candidates must be unary point-valued")
    # Each candidate's domain is sorted once; a combo walks its first
    # candidate's, keeping the points every other candidate also maps.
    sorted_graphs = [(sorted(c.graph), c.graph) for c in candidates]
    for combo in itertools.product(sorted_graphs, repeat=len(arity)):
        graph = {}
        for d in combo[0][0]:
            args = [cg.get(d) for _, cg in combo]
            if None not in args:
                v = f.graph.get(MTuple(zip(arity, args)))
                if v is not None:
                    graph[d] = v
        composite = PartialFn(full_index(1), graph)
        if _has_width_blowup(composite):
            return composite
    raise AdmissibilityError("no unary witness in candidate set")


def _has_width_blowup(p: PartialFn) -> bool:
    """Some width-1 slice of dom(p) maps to an image of width above 1."""
    value_at = {d: v for ((_, d),), v in p.graph.items()}
    return any(width(value_at[d] for d in sl) > 1
               for sl in width1_slices(value_at))


# -- normalization ----------------------------------------------------


@dataclass
class NormalizedWitness:
    """A unary witness brought into the (0 | n (+) k) |-> (k | n) shape.

    ``relabel_domain`` sends each normalized input to the original preimage,
    ``line_map`` and ``row_map`` are the (injective) output relabelings; the
    normalized graph is their composition with the original witness, plus
    the harmless (0|0) |-> (0|0) entry used for undefined helper slots.
    """

    f_star: PartialFn
    horizon: int
    relabel_domain: dict  # Point (0 | n(+)k) -> original domain Point
    line_map: dict  # original line index -> normalized line index
    row_map: dict  # original row index -> normalized row index


def normal_witness(horizon: int) -> PartialFn:
    """The normalized witness f*: (0 | n (+) k) |-> (k | n) for k < n <
    horizon, after the harmless (0|0) |-> (0|0) entry."""
    graph = {MTuple(((1, ORIGIN),)): ORIGIN}
    for n in range(1, horizon):
        for k in range(n):
            graph[MTuple(((1, Point(0, oplus(n, k))),))] = Point(k, n)
    return PartialFn._trusted(full_index(1), graph, None)


def normalize_f(f_unary: PartialFn, horizon: int) -> NormalizedWitness:
    """Permute lines, rows, and domain labels so the witness satisfies the
    normalized shape for all k < n < horizon.

    f* itself depends on the horizon only (`normal_witness`); the witness
    decides the relabelings and whether they exist.  Deterministic choices:
    target lines are filled from the largest demand down, each taking the
    smallest-label unused image line with enough points; points within a
    line are ordered by x, and each point's preimage is its least-y one.
    """
    if sorted(f_unary.arity) != [1] or not f_unary.is_point_valued():
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

    f_star = normal_witness(horizon)
    line_map = {chosen_line[n]: n for n in range(1, horizon)}
    row_map: dict = {}
    relabel_domain: dict = {}
    # f*'s entries after (0|0) |-> (0|0) are (0 | n (+) k) |-> (k | n), in
    # the order the checks run: n ascending, then k.
    entries = itertools.islice(f_star.graph.items(), 1, None)
    for ((_, code),), (k, n) in entries:
        v, d = by_line[chosen_line[n]][k]
        if d.x != 0:
            raise AdmissibilityError(
                f"witness preimage {d!r} is off the x=0 column"
            )
        if row_map.setdefault(v.x, k) != k:
            raise AdmissibilityError(
                f"row {v.x} cannot be relabeled consistently"
            )
        relabel_domain[code] = d

    return NormalizedWitness(
        f_star=f_star,
        horizon=horizon,
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


def fiber_k_tables(q: PartialFn, theta: int) -> dict:
    """K-tables for every fiber of q, keyed by (S, fiber key) in sweep and
    key order: the line maxima (`line_bounds`) of each fiber's
    `fiber_bounds`."""
    if not q.is_point_valued():
        raise IndexMismatchError("k-tables apply to point-valued functions")
    return {(s, c): line_bounds(bounds, theta)
            for s in all_subsets(sorted(q.arity))
            for c, bounds in fiber_bounds(q, s).items()}


def build_h_family(q: PartialFn, keys: tuple, k_tables: Mapping) -> dict:
    """The helper maps h^{S,j}, one per (S, j) pair of ``keys`` past the
    inputs, in key order, each total over dom(q).

    For u = c (union) z in dom(q): (0 | K (+) z_j^y) when z_j's line index
    lies below the fiber's bound K at q(u)'s line, and (0|0) otherwise: the
    paper's bar extension, stated only here, for the selector and the term
    to read.  The range sits in the x = 0 row, hence has width 1: a code
    K (+) z is at least 1, so (0|0) is alone on line 0.

    One S at a time: its fiber keys (`fiber_columns`), one K per entry,
    then one pass over the y-column of each j outside S.  A missing K
    entry raises AdmissibilityError, the first in sweep and graph order.
    """
    family = {}
    for s, pairs in itertools.groupby(keys[len(q.arity):],
                                      key=lambda pair: pair[0]):
        fiber_keys, outside = fiber_columns(q, s)
        bounds = []
        for c, v in zip(fiber_keys, q.graph.values()):
            table = k_tables.get((s, c))
            if table is None or v.y not in table:
                raise AdmissibilityError(
                    f"missing K entry for fiber ({sorted(s)}, {c!r}) at line "
                    f"{v.y}; q was not certified hereditarily thrifty"
                )
            bounds.append(table[v.y])
        for _, j in pairs:
            family[s, j] = PartialFn._trusted(q.arity, {
                u: Point(0, oplus(big_k, p.y)) if p.y < big_k else ORIGIN
                for u, big_k, (_, p) in zip(q.graph, bounds, outside[j])
            }, None)
    return family


def build_Q(q: PartialFn, h_family: Mapping, nw: NormalizedWitness,
            keys: tuple) -> PartialFn:
    """The selector table: defined at (u, v) exactly when every v-slot equals
    the witness's output on the corresponding helper at u; value q(u).  The
    helpers are total over dom(q) (`build_h_family`), so every slot is
    read."""
    m = len(q.arity)
    witness = {d: v for ((_, d),), v in nw.f_star.graph.items()}
    slots = [(slot, h_family[pair].graph)
             for slot, pair in enumerate(keys[m:], m + 1)]
    graph = {}
    for u, val in q.graph.items():
        entries = list(u)  # indices 1..m, then the slots in ascending order
        for slot, helper in slots:
            hv = helper[u]
            out = witness.get(hv)
            if out is None:
                raise AdmissibilityError(
                    f"witness not defined at helper output {hv!r}; "
                    "horizon too small"
                )
            entries.append((slot, out))
        graph[MTuple(entries)] = val
    return PartialFn(full_index(len(keys)), graph)


# -- term assembly ----------------------------------------------------

SELECTOR_ATOM = "Q"
WITNESS_NAME = "f*"


def helper_name(s: IndexSet, j: int) -> str:
    return "h[{{{}}},{}]".format(",".join(map(str, sorted(s))), j)


def assemble_term(q: PartialFn, nw: NormalizedWitness, h_family: Mapping,
                  q_table: PartialFn, keys: tuple,
                  inner: PartialFn) -> Term:
    """The synthesized term for g = q o inner: the selector applied to the
    inner-map components and the witness's outputs on the helpers at those
    components.  The helpers are bound as built: `build_h_family` already
    gives them the (0|0) value off their bound, over all of dom(q)."""
    env = {
        SELECTOR_ATOM: AtomBinding(q_table, CI_ATOM),
        WITNESS_NAME: AtomBinding(nw.f_star, WITNESS_ATOM),
    }
    projections = tuple(Proj(i) for i in sorted(q.arity))
    for i in sorted(q.arity):
        env[f"inner[{i}]"] = AtomBinding(inner.component(i), CI_ATOM)
    args = tuple(App(f"inner[{i}]", projections) for i in sorted(q.arity))
    children = list(args)
    for s, j in keys[len(q.arity):]:
        name = helper_name(s, j)
        env[name] = AtomBinding(h_family[(s, j)], CI_ATOM)
        children.append(App(WITNESS_NAME, (App(name, args),)))
    root = App(SELECTOR_ATOM, tuple(children))
    return Term(root=root, env=env, arity=q.arity)


# -- width certificates for the selector ------------------------------


def _in_product(uv: MTuple, factors: Mapping, keys: Sequence) -> bool:
    """Whether each slot of uv lies in its width-1 factor, a line -> column
    map read as column 0 on a line it does not list; ``keys`` in slot
    order."""
    for slot, key in enumerate(keys, 1):
        x, y = uv[slot]
        if factors[key].get(y, 0) != x:
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
    passed: bool


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
                                entries=best, passed=len(best) <= bound)


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
    family = {}
    for slot, key in enumerate(factor_keys(m), 1):
        factor = family[key] = {}
        for uv in entries:
            x, y = uv[slot]
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
    passed: bool
    detail: str = ""


def main_lemma_certify(q_table: PartialFn, k_tables: Mapping, factors: Mapping,
                       m: int) -> list:
    """Uniqueness certificates over one product of width-1 factors, one
    per (value line n, reindexing perm of 1..m) pair, ascending, that some
    table entry in the product qualifies under: its lines rise along perm.
    Every other pair could only pass vacuously.

    The table is scanned once; each entry in the product joins the group
    of every perm it qualifies under on its value line.  Those perms sort
    its input lines: the concatenations, in line order, of a permutation
    of each group of indices on one line, so they are generated, not
    searched for among all m!.
    """
    keys = factor_keys(m)
    groups: dict = {}  # (value line, perm) -> qualifying entries
    for uv, val in q_table.graph.items():
        if _in_product(uv, factors, keys):
            line_of = {i: p.y for i, p in uv if i <= m}
            tied = [tuple(group) for _, group in itertools.groupby(
                sorted(line_of, key=line_of.get), key=line_of.get)]
            for parts in itertools.product(
                    *map(itertools.permutations, tied)):
                perm = tuple(itertools.chain.from_iterable(parts))
                groups.setdefault((val.y, perm), []).append(uv)
    return [_certify_line(k_tables, factors, n, perm, sorted(qualifying))
            for (n, perm), qualifying in sorted(groups.items())]


def _certify_line(k_tables: Mapping, factors: Mapping, n: int, perm: tuple,
                  qualifying: list) -> UniquenessReport:
    """Compute the unique candidate input for line n under perm and check
    that the qualifying entries, sorted and at least one, are just it.

    The recursion, under the reindexing perm: at step j the fiber fixed so
    far gives a bound k_j at line n; the (S,j)-factor selects the line b_j
    at k_j, and the j-th input factor selects the column a_j at b_j.
    """
    candidate: dict = {}  # also the fiber's key, the S-part fixed so far
    detail = ""
    for step, j in enumerate(perm):
        s = frozenset(perm[:step])
        table = k_tables.get((s, MTuple.of(candidate)))
        if table is None or n not in table:
            detail = "qualifying entry despite missing K chain"
            break
        bj = factors[(s, j)].get(table[n], 0)
        candidate[j] = Point(factors[j].get(bj, 0), bj)
    else:
        if len(qualifying) > 1:
            detail = "more than one qualifying entry"
        elif any(qualifying[0][j] != candidate[j] for j in candidate):
            detail = "qualifying entry differs from candidate"
    return UniquenessReport(
        line=n, perm=perm, candidate=candidate,
        qualifying=tuple(qualifying), passed=not detail, detail=detail,
    )


# -- end to end -------------------------------------------------------


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage tag."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"[{stage}] {cause}")


@dataclass
class SynthesisResult:
    """Everything produced on the way to the final term."""

    normalized: NormalizedWitness
    trace: DecompositionTrace
    k_tables: dict
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
    nw = _run_stage("normalize", normalize_f, f, horizon)
    trace = _run_stage("decompose", hereditary_decompose, g, theta)
    return complete_synthesis(g, nw, trace)


def complete_synthesis(g: PartialFn, nw: NormalizedWitness,
                       trace: DecompositionTrace) -> SynthesisResult:
    """Helper/selector construction and term assembly from the products of
    the choice stages: the normalized witness and g's decomposition trace."""
    q = trace.g_prime
    keys = factor_keys(len(g.arity))
    tables = _run_stage("k-tables", fiber_k_tables, q, trace.theta)
    h_family = _run_stage("helpers", build_h_family, q, keys, tables)
    q_table = _run_stage("selector", build_Q, q, h_family, nw, keys)
    term = _run_stage("assemble", assemble_term,
                      q, nw, h_family, q_table, keys, trace.h_composed)
    return SynthesisResult(
        normalized=nw, trace=trace, k_tables=tables,
        h_family=h_family, q_table=q_table, term=term,
    )
