"""Grid points, finite index tuples, finitely supported partial functions,
and the term AST the whole pipeline evaluates.

Everything here is immutable and pure.  Term evaluation returns ``None`` as
the undefined marker; it is never an error to evaluate outside a domain.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Union


class Point(NamedTuple):
    """A grid point with natural coordinates.

    ``y`` selects the line (the horizontal level), ``x`` the column within it.
    """

    x: int
    y: int

    def __repr__(self) -> str:
        return f"({self.x}|{self.y})"


ORIGIN = Point(0, 0)

IndexSet = frozenset  # finite sets of positive naturals


class IndexMismatchError(ValueError):
    """Index sets of two values do not line up as required."""


class OverlapError(ValueError):
    """Domains or index sets overlap where disjointness is required."""


def full_index(m: int) -> IndexSet:
    """The canonical index set {1, ..., m}."""
    return frozenset(range(1, m + 1))


class MTuple(tuple):
    """A total map from a finite index set to points, stored canonically.

    An M-tuple is its own entry tuple: the ``(index, Point)`` pairs sorted
    by index.  Hashing, equality and ordering are ``tuple``'s own C
    methods, so an M-tuple equals and hashes like the plain tuple of its
    entries; the ordering is only used for deterministic iteration.
    Iteration, ``len`` and truth are the entries'; ``u[i]`` and ``i in u``
    scan the entries, fine for an m-tuple but quadratic over a wide row
    read index by index, so such rows are read in slot order.  Tuples over
    the same indices share one frozenset index set, computed on read.
    """

    __slots__ = ()

    @staticmethod
    def of(mapping: Mapping[int, Point]) -> "MTuple":
        return MTuple(sorted(mapping.items()))

    @staticmethod
    def empty() -> "MTuple":
        return _EMPTY_TUPLE

    @property
    def indices(self) -> IndexSet:
        found = frozenset(map(_index_of, self))
        return _INDEX_SETS.setdefault(found, found)

    def __getitem__(self, i: int) -> Point:
        for j, p in self:
            if j == i:
                return p
        raise KeyError(i)

    def __contains__(self, i: int) -> bool:
        return any(j == i for j, _ in self)

    def points(self) -> tuple:
        return tuple(p for _, p in self)

    def items(self) -> "MTuple":
        """The entries, as a mapping lists its items."""
        return self

    def restrict(self, s: IndexSet) -> "MTuple":
        return MTuple([e for e in self if e[0] in s])

    def without(self, s: IndexSet) -> "MTuple":
        return MTuple([e for e in self if e[0] not in s])

    def union(self, other: "MTuple") -> "MTuple":
        """Union of an S-tuple with a T-tuple over disjoint index sets."""
        if self.indices & other.indices:
            raise OverlapError(
                f"index sets overlap: {sorted(self.indices & other.indices)}"
            )
        return MTuple(sorted(self + other))

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}:{p!r}" for i, p in self)
        return f"<{inner}>"


_EMPTY_TUPLE = MTuple()
_index_of = itemgetter(0)
# One frozenset per distinct index set, shared by every tuple over it.
_INDEX_SETS: dict = {}


class PartialFn:
    """A finitely supported partial function from M-tuples to points.

    The graph is a plain dict; by convention it is never mutated after
    construction.

    ``PartialFn(...)`` copies the graph and checks every entry against the
    arity, its key a tuple of points and its value a point, as builders
    from outside data such as ``instances._build_target`` need.  Graphs
    valid by construction are wrapped with ``_trusted`` instead, which
    does neither.  The callers of ``_trusted``, all of them, as a lint test
    checks: ``PartialFn.restrict`` and ``decompose.strong_decompose_stage``
    keep entries of checked functions; ``compose`` pairs its inner map's
    keys, tuples over outer's arity, with outer's values;
    ``synth.reduce_to_unary`` keys each composite by a candidate's own
    tuples, with f's own points; ``synth.normal_witness`` builds f* from
    the horizon alone; ``synth.build_h_family`` keys each helper by dom(q)
    and codes its points once per call; ``synth.build_Q`` extends dom(q)'s
    keys by the slots in ascending order, with f*'s own points;
    ``synth.assemble_term`` keys each inner-map component by dom(g), with
    points of the decomposition's own tuples; ``instances._witness_graph``
    pairs its own points over a fixed arity; and ``serialize._Reader.pfn``
    builds each tuple over the sorted arity from points it checked.
    """

    __slots__ = ("arity", "graph")

    def __init__(self, arity: IndexSet, graph: Mapping[MTuple, Point]):
        self.arity = frozenset(arity)
        # A canonical tuple lists its indices in sorted order, so comparing
        # that list builds no index set per entry.
        order = sorted(self.arity)
        g = dict(graph)
        for u, v in g.items():
            if list(map(_index_of, u)) != order:
                raise IndexMismatchError(
                    f"domain tuple {u!r} does not match arity {order}"
                )
            if not isinstance(v, Point):
                raise IndexMismatchError(f"expected point value, got {v!r}")
            for _, p in u:
                if not isinstance(p, Point):
                    raise IndexMismatchError(
                        f"entry at {u!r} holds a non-point {p!r}")
        self.graph = g

    # -- constructors -------------------------------------------------

    @classmethod
    def _trusted(cls, arity: IndexSet, graph: dict) -> "PartialFn":
        """Wrap a graph that is valid by construction, without a copy or a
        check; ``arity`` must already be a frozenset."""
        fn = object.__new__(cls)
        fn.arity, fn.graph = arity, graph
        return fn

    # -- basic queries ------------------------------------------------

    def domain(self) -> frozenset:
        return frozenset(self.graph)

    def __len__(self) -> int:
        return len(self.graph)

    def restrict(self, keys: Iterable[MTuple]) -> "PartialFn":
        ks = set(keys)
        return PartialFn._trusted(
            self.arity, {u: v for u, v in self.graph.items() if u in ks})

    def is_subfunction_of(self, other: "PartialFn") -> bool:
        return self.arity == other.arity and all(
            other.graph.get(u) == v for u, v in self.graph.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartialFn):
            return NotImplemented
        return self.arity == other.arity and self.graph == other.graph

    def __repr__(self) -> str:
        return (f"PartialFn(arity={sorted(self.arity)}, "
                f"|graph|={len(self.graph)})")


# -- composition ------------------------------------------------------


def compose(outer: PartialFn, inner: Mapping[MTuple, MTuple]) -> PartialFn:
    """outer after inner, a plain map from tuples over outer's arity to
    tuples over it; defined where inner lands inside dom(outer)."""
    graph = outer.graph
    return PartialFn._trusted(outer.arity, {
        u: graph[mid] for u, mid in inner.items() if mid in graph})


# -- terms ------------------------------------------------------------

WITNESS_ATOM = "witness"
CI_ATOM = "ci"


@dataclass(frozen=True)
class Proj:
    """Projection onto the k-th argument."""

    k: int


@dataclass(frozen=True)
class App:
    """Application of a named atom to child terms, one per arity index."""

    name: str
    children: tuple


TermNode = Union[Proj, App]


@dataclass(frozen=True)
class AtomBinding:
    """An atom of a term's `env`: a partial function plus its class."""

    fn: PartialFn
    kind: str  # WITNESS_ATOM or CI_ATOM


class UnresolvedAtomError(ValueError):
    """A term references an atom name missing from its `env`."""


@dataclass
class Term:
    """A term over named atoms and projections, with its atom table `env`."""

    root: TermNode
    env: dict  # name -> AtomBinding
    arity: IndexSet

    def __post_init__(self):
        self.arity = frozenset(self.arity)

    def size(self) -> int:
        """Node count of the term as a tree, shared subterms counted at
        every occurrence."""
        return _fold_nodes(self.root, sum, {})

    def depth(self) -> int:
        return _fold_nodes(self.root, lambda found: max(found, default=0), {})


def _fold_nodes(node: TermNode, combine: Callable[[list], int],
                done: dict) -> int:
    """1 at a projection, 1 + ``combine`` of the children's values at an
    application: one visit per distinct node object, however often the
    tree shares it.  ``done`` maps the id of each node visited to its
    value; the caller's root keeps every node alive."""
    found = done.get(id(node))
    if found is None:
        found = done[id(node)] = 1 if isinstance(node, Proj) else (
            1 + combine([_fold_nodes(ch, combine, done)
                         for ch in node.children]))
    return found


def compile_term(t: Term) -> Callable[[list], list]:
    """Lower t once into a straight-line program over its distinct
    subterms and return the evaluator that runs it over a list of tuples.

    The program is a list of slots in evaluation order, of three kinds: a
    projection slot holds its index's position in the sorted arity; an
    argument slot, shared by (the atom's sorted arity, the child slots),
    builds the tuples an atom is looked up at; a lookup slot, shared by
    (atom name, child slots), which fix its argument slot, holds the
    atom's graph as it is.

    The evaluator fills one column per slot, one entry per input tuple.  A
    lookup column maps ``graph.get`` over its argument column: None, the
    undefined marker, is never a graph key, so it passes through.  An
    argument column builds one `MTuple` per distinct row of its children's
    columns, None where any child is None; a unary slot maps its child's
    distinct values instead, and a slot that applies the term's
    projections in index order under the term's own arity is the input
    tuples themselves.  It returns the term's values in input order.

    The node checks run here, once, over the whole term: an unbound atom
    raises ``UnresolvedAtomError``, and a projection outside the term's
    arity or a wrong child count ``IndexMismatchError``, also behind an
    undefined sibling, where a walk that stops at the first undefined child
    would never look.  A node object the tree shares is lowered once, however
    often it occurs.  ``serialize.term_loads`` lowers every term it reads,
    so a parsed term has none of these faults.  The evaluator raises
    ``IndexMismatchError``, before any lookup, if a tuple is not over the
    term's arity.
    """
    order = tuple(sorted(t.arity))
    program: list = []
    slots: dict = {}

    def slot(key, entry) -> int:
        found = slots.get(key)
        if found is None:
            found = slots[key] = len(program)
            program.append(entry)
        return found

    lowered: dict = {}  # id(node) -> its slot; t.root keeps nodes alive

    def lower(node: TermNode) -> int:
        found = lowered.get(id(node))
        if found is None:
            found = lowered[id(node)] = lower_new(node)
        return found

    def lower_new(node: TermNode) -> int:
        if isinstance(node, Proj):
            if node.k not in t.arity:
                raise IndexMismatchError(
                    f"projection {node.k} outside arity {list(order)}")
            return slot(node.k, (_PROJECT, order.index(node.k), None))
        if node.name not in t.env:
            raise UnresolvedAtomError(f"unbound atom {node.name!r}")
        fn = t.env[node.name].fn
        if len(node.children) != len(fn.arity):
            raise IndexMismatchError(
                f"atom {node.name!r} has arity {len(fn.arity)}, "
                f"applied to {len(node.children)} children"
            )
        key = (node.name, tuple(lower(ch) for ch in node.children))
        if key in slots:
            return slots[key]
        arity, children = tuple(sorted(fn.arity)), key[1]
        if arity == order and children == tuple(map(slots.get, order)):
            entry = (_INPUT, None, None)
        elif len(children) == 1:
            entry = (_UNARY, arity[0], children[0])
        else:
            entry = (_ROWS, arity, children)
        return slot(key, (_LOOKUP, fn.graph, slot((arity, children), entry)))

    try:
        root = lower(t.root)
    finally:
        # lower and lower_new reach each other through their cells; the
        # cycle would keep the term alive until the cyclic collector ran
        del lower, lower_new

    def evaluate(tuples: list) -> list:
        for u in tuples:
            if u.indices != t.arity:
                raise IndexMismatchError(
                    f"tuple over {sorted(u.indices)} fed to term of arity "
                    f"{list(order)}"
                )
        if not tuples:
            return []
        by_position = list(zip(*tuples))  # the (index, point) entries
        cols: list = []
        for kind, a, b in program:
            if kind is _LOOKUP:  # a: the atom's graph, b: its argument slot
                col = list(map(a.get, cols[b]))
            elif kind is _PROJECT:  # a: the position
                col = [p for _, p in by_position[a]]
            elif kind is _INPUT:
                col = tuples
            elif kind is _UNARY:  # a: the index, b: the child slot
                keys = {p: MTuple(((a, p),)) for p in set(cols[b])
                        if p is not None}
                col = list(map(keys.get, cols[b]))
            else:  # a: the sorted arity, b: the child slots
                rows = (list(zip(*[cols[c] for c in b])) if b
                        else [()] * len(tuples))
                keys = {row: MTuple(zip(a, row)) for row in set(rows)
                        if None not in row}
                col = list(map(keys.get, rows))
            cols.append(col)
        return cols[root]

    return evaluate


_PROJECT, _INPUT, _UNARY, _ROWS, _LOOKUP = (
    "project", "input", "unary", "rows", "lookup")
