"""Canonical, human-diffable JSON forms for instances, terms, and reports.

Points serialize as two-element arrays, tuples as index-keyed objects,
point-valued partial functions as entry lists sorted by domain tuple,
terms as nested tagged objects; the byte form is canonical (sorted keys,
fixed separators), so equal values serialize identically.  A document
loads only if the writer could have written it: its version and kind
tags, exactly the writer's keys on every object, a null codomain on every
graph, strictly increasing arities of positive indices and the ceiling
horizon² + horizon.  A graph's errors start with its place in the
document, such as ``instance.candidates[1]``.

Every graph is written by one function and read by one pass over whole
columns, whatever its arity, each distinct point and tuple of a document
read back as one shared object; a graph the pass rejects is walked entry
by entry only to name its fault.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from itertools import chain, repeat
from operator import itemgetter
from typing import NoReturn

from .core import (
    App,
    AtomBinding,
    CI_ATOM,
    MTuple,
    PartialFn,
    Point,
    Proj,
    Term,
    WITNESS_ATOM,
    compile_term,
    full_index,
)
from .instances import PROFILES, Instance

FORMAT_VERSION = 1


class ParseError(ValueError):
    """Malformed or wrongly versioned serialized input."""


def _cut(text: str, limit: int = 60) -> str:
    """text cut to ``limit`` characters with an ellipsis, so a ParseError
    stays one short line however large the document."""
    return text if len(text) <= limit else text[:limit - 3] + "..."


def _shown(v) -> str:
    """The repr of a document value, as a ParseError shows it."""
    return _cut(repr(v))


@contextmanager
def _parsing(what: str):
    """Report a malformed document's lookup, type and value errors, and
    nesting too deep to recurse through, as a ParseError about ``what``."""
    try:
        yield
    except ParseError:
        raise
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"{what}: {_cut(str(exc), 120)}") from exc
    except RecursionError as exc:
        raise ParseError(f"{what}: nested too deeply") from exc


def dumps(doc: dict) -> bytes:
    """Canonical bytes of doc: sorted keys, no spaces, a final newline.

    A ``PartialFn`` in doc is written as its arity, a null codomain and its
    graph.  ``json.dumps`` writes each graph as a hole string, and the
    texts of `_graph_text` are spliced in at the holes.  A string of doc
    could equal the hole and give an extra cut; the hole then grows until
    none does.
    """
    hole = "\0"
    while True:
        fns = []

        def skeleton(obj):
            if not isinstance(obj, PartialFn):
                raise TypeError(f"{type(obj).__name__} is not JSON "
                                "serializable (a PartialFn is)")
            fns.append(obj)
            return {"arity": sorted(obj.arity), "codomain": None,
                    "graph": hole}

        parts = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                           default=skeleton).split(json.dumps(hole))
        if len(parts) == len(fns) + 1:
            break
        hole += "\0"
    texts = [*map(_graph_text, fns), "\n"]
    return "".join(part + text for part, text in zip(parts, texts)).encode()


def loads(data: bytes, kind: str) -> dict:
    """The document of data, if it is tagged with the JSON integer version
    and with ``kind``, the kind its reader reads."""
    try:
        doc = json.loads(data.decode())
    except (ValueError, RecursionError) as exc:
        # ValueError covers undecodable bytes, bad JSON and integer
        # literals over the interpreter's digit limit
        raise ParseError(f"{kind}: {_cut(str(exc), 120)}") from exc
    if not isinstance(doc, dict) or "version" not in doc:
        raise ParseError(f"{kind}: missing version tag")
    version = doc["version"]
    # True == 1 == 1.0, so the type is checked too
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(
            f"{kind}: unknown version {_shown(version)} "
            f"(expected {FORMAT_VERSION})")
    if doc.get("kind") != kind:
        raise ParseError(f"{kind}: document kind {_shown(doc.get('kind'))} "
                         f"is not {kind!r}")
    return doc


def _fields(doc, fields: tuple, kind: str) -> list:
    """The values of ``fields`` in doc, if doc is an object whose keys are
    exactly ``fields``, the keys its writer writes; else a ParseError about
    ``kind`` that names each missing and unknown key."""
    _typed(doc, dict, f"{kind}:")
    missing = [k for k in fields if k not in doc]
    if missing or len(doc) != len(fields):
        unknown = sorted(doc.keys() - {*fields})
        raise ParseError(f"{kind}: " + _cut("; ".join(
            [f"missing field {k!r}" for k in missing]
            + [f"unknown field {_shown(k)}" for k in unknown]), 120))
    return [doc[k] for k in fields]


# -- value forms ------------------------------------------------------


_TYPE_NAMES = {int: "a JSON integer", str: "a string", list: "an array",
               dict: "an object"}


def _typed(v, kind: type, what: str):
    """v if it is a JSON value of ``kind`` (an int is no bool, float,
    infinity or string); else a ParseError about ``what`` that shows v."""
    if type(v) is not kind:
        raise ParseError(f"{what} {_shown(v)} is not {_TYPE_NAMES[kind]}")
    return v


def _index_set(members, what: str) -> frozenset:
    """The set of members, if they are positive JSON integers listed
    strictly increasing, as the writer lists them."""
    index = [_typed(i, int, f"{what} member")
             for i in _typed(members, list, what)]
    if sorted({*index}) != index:
        raise ParseError(f"{what} {_shown(members)} is not strictly "
                         "increasing")
    # an index set holds positive naturals only, as a tuple key does
    if index and index[0] < 1:
        raise ParseError(f"{what} member {_shown(index[0])} is below 1")
    return frozenset(index)


def _index(key, obj) -> int:
    """The index a tuple key names: only the canonical decimal form of a
    positive int names one, so no two keys name the same index."""
    try:
        i = int(key)
    except (TypeError, ValueError):
        i = 0
    if i < 1 or str(i) != key:
        raise ParseError(f"bad tuple {_shown(obj)}: index key {_shown(key)} "
                         "is not a positive decimal")
    return i


def _graph_text(p: PartialFn) -> str:
    """The JSON text of p's graph, written the same way whatever its arity.

    It relies on `PartialFn`'s contract, as `analysis.index_columns` does:
    every tuple lists exactly the arity, sorted.  So the tuples transpose
    into one point column per index, and each entry is the flat int row
    (x1, y1, ..., xk, yk, a, b), which sorts as ``sorted(p.graph.items())``
    does.  One %-template per graph writes every row, its holes in JSON's
    key order ("10" before "2"); where that is not the index order, one
    itemgetter reorders each row to match.
    """
    order = sorted(p.arity)
    keys = sorted(order, key=str)
    entry = ("[{" + ",".join('"%d":[%%d,%%d]' % i for i in keys)
             + "},[%d,%d]]")
    first, second = itemgetter(0), itemgetter(1)
    columns = []
    for column in zip(*p.graph):
        points = [*map(second, column)]
        columns += map(first, points), map(second, points)
    values = p.graph.values()
    rows = sorted(zip(*columns, map(first, values), map(second, values)))
    if keys != order:
        slots = [order.index(i) for i in keys]
        rows = map(itemgetter(*[c for j in slots for c in (2 * j, 2 * j + 1)],
                              -2, -1), rows)
    return ("[" + ",".join([entry] * len(p.graph)) + "]") % tuple(
        chain.from_iterable(rows))


def _point(obj) -> Point:
    if not (isinstance(obj, list) and len(obj) == 2):
        raise ParseError(f"bad point {_shown(obj)}")
    x, y = obj
    # JSON integers only: no bool, float, infinity or string
    if type(x) is not int or type(y) is not int:
        raise ParseError(f"bad point {_shown(obj)}: coordinates must be "
                         "JSON integers")
    if x < 0 or y < 0:
        raise ParseError(f"bad point {_shown(obj)}: negative coordinate")
    return Point(x, y)


def _mtuple(obj) -> MTuple:
    if not isinstance(obj, dict):
        raise ParseError(f"bad tuple {_shown(obj)}")
    indices = [_index(k, obj) for k in obj]
    return MTuple(sorted(zip(indices, map(_point, obj.values()))))


def _graph_fault(arity: frozenset, entries: list, where: str) -> NoReturn:
    """Raise the ParseError naming, entry by entry, the first fault of a
    graph `_Reader.graph` rejected; the pass accepts what this walk does."""
    with _parsing(where):
        try:
            for n, entry in enumerate(entries):
                if not (isinstance(entry, list) and len(entry) == 2):
                    raise ParseError(f"graph entry {n} {_shown(entry)} is "
                                     "not a [tuple, point] pair")
            graph = {_mtuple(u): _point(v) for u, v in entries}
        except ParseError as exc:
            raise ParseError(f"{where}: {exc}") from exc
        if len(graph) != len(entries):
            raise ParseError(f"{where}: two graph entries have equal domain "
                             "tuples")
        PartialFn(arity, graph)
    raise AssertionError(f"{where}: the column pass rejected a valid graph")


class _Reader:
    """Reads the graphs of one document, one object per distinct value."""

    def __init__(self):
        # each Point and MTuple -> itself; no point equals a tuple
        self.interned: dict = {}

    def graph(self, order: list, entries: list):
        """The graph of an entry list over the sorted arity ``order``, read
        by columns as `_graph_text` writes it; None unless each entry pairs
        a key object of exactly the arity's index keys, in any order, with a
        point, all points are 2-lists of ints >= 0 and all tuples differ."""
        if not ({*map(type, entries)} <= {list}
                and {*map(len, entries)} <= {2}):
            return None
        keys = [*map(itemgetter(0), entries)]
        if not ({*map(type, keys)} <= {dict}
                and {*map(len, keys)} <= {len(order)}):
            return None
        try:
            # one column of point lists per index, then the values
            lists = [*chain(*[map(itemgetter(str(i)), keys) for i in order],
                            map(itemgetter(1), entries))]
        except KeyError:
            return None
        if not ({*map(type, lists)} <= {list} and {*map(len, lists)} <= {2}
                and {*map(type, chain.from_iterable(lists))} <= {int}
                and min(chain.from_iterable(lists), default=0) >= 0):
            return None
        intern = self.interned.setdefault
        points = [intern(p, p)
                  for p in map(tuple.__new__, repeat(Point), lists)]
        n = len(entries)
        values = points[len(order) * n:]
        # the values column keeps n rows when the arity is empty
        rows = zip(*[zip(repeat(i), points[j * n:(j + 1) * n])
                     for j, i in enumerate(order)], values)
        tuples = [*map(MTuple, map(itemgetter(slice(-1)), rows))]
        graph = dict(zip(map(intern, tuples, tuples), values))
        return graph if len(graph) == n else None

    def pfn(self, obj, where: str) -> PartialFn:
        """The function of the graph object obj, found at ``where`` in the
        document (``instance.g``, ``term.env["Q"].fn``); every ParseError
        it raises starts with that place."""
        arity, codomain, entries = _fields(
            obj, ("arity", "codomain", "graph"), where)
        if codomain is not None:
            raise ParseError(f"{where}: codomain {_shown(codomain)} "
                             "is not null")
        arity = _index_set(arity, f"{where}: arity")
        _typed(entries, list, f"{where}: graph")
        graph = self.graph(sorted(arity), entries)
        if graph is None:
            _graph_fault(arity, entries, where)
        return PartialFn._trusted(arity, graph)


# -- terms ------------------------------------------------------------


def _node_json(node) -> dict:
    if isinstance(node, Proj):
        return {"t": "proj", "k": node.k}
    return {
        "t": "app",
        "name": node.name,
        "children": [_node_json(ch) for ch in node.children],
    }


def _node_parse(obj, interned: dict):
    """The term node obj describes, one object per distinct node of the
    document: ``interned`` maps a projection's index, or an application's
    name and the ids of its already interned children, to the node, so a
    loaded term shares its subterms as a synthesized one does.  A value of
    the wrong JSON type is named; other type and value errors are left to
    the one guard `term_loads` puts around the root, which reports them as
    a ParseError about a term node."""
    if not isinstance(obj, dict) or "t" not in obj:
        raise ParseError("term node: missing field 't'")
    tag = obj["t"]
    if tag == "proj":
        _, k = _fields(obj, ("t", "k"), "term node")
        k = _typed(k, int, "term node: projection")
        node = interned.get(k)
        if node is None:
            node = interned[k] = Proj(k)
        return node
    if tag == "app":
        _, name, children = _fields(obj, ("t", "name", "children"),
                                    "term node")
        _typed(name, str, "term node: name")
        _typed(children, list, "term node: children")
        children = tuple(_node_parse(ch, interned) for ch in children)
        key = (name, *map(id, children))
        node = interned.get(key)
        if node is None:
            node = interned[key] = App(name, children)
        return node
    raise ParseError(f"unknown term node tag {_shown(tag)}")


def term_dumps(t: Term) -> bytes:
    return dumps({
        "version": FORMAT_VERSION,
        "kind": "term",
        "arity": sorted(t.arity),
        "root": _node_json(t.root),
        "env": {name: {"kind": b.kind, "fn": b.fn}
                for name, b in t.env.items()},
    })


def term_loads(data: bytes) -> Term:
    """The term of data.  Beyond its form, an atom of unknown kind is
    rejected, and so is whatever `compile_term` rejects: a projection
    outside the arity, an unbound atom, or an atom applied to a child
    count other than its arity."""
    doc = loads(data, "term")
    _, _, arity, root, bindings = _fields(
        doc, ("version", "kind", "arity", "root", "env"), "term")
    _typed(bindings, dict, "term: env")
    reader = _Reader()
    with _parsing("term"):
        env = {}
        for name, b in bindings.items():
            what = f"term: atom {_shown(name)}"
            kind, fn = _fields(b, ("kind", "fn"), what)
            if kind not in (CI_ATOM, WITNESS_ATOM):
                raise ParseError(f"{what} has unknown kind {_shown(kind)}")
            env[name] = AtomBinding(
                reader.pfn(fn, f"term.env[{_cut(json.dumps(name))}].fn"), kind)
        with _parsing("term node"):
            root = _node_parse(root, {})
        term = Term(root=root, env=env,
                    arity=_index_set(arity, "term: arity"))
        compile_term(term)
    return term


# -- instances --------------------------------------------------------


def instance_dumps(inst: Instance) -> bytes:
    return dumps({
        "version": FORMAT_VERSION,
        "kind": "instance",
        "m": inst.m,
        "horizon": inst.horizon,
        "theta": inst.theta,
        "seed": inst.seed,
        "ceiling": inst.ceiling,
        "profile": inst.profile,
        "g": inst.g,
        "f": inst.f,
        "candidates": inst.candidates,
        "metadata": inst.metadata,
    })


def instance_loads(data: bytes) -> Instance:
    """The instance of data.  Beyond its form, a ceiling other than
    horizon² + horizon, the only one the writer writes, is rejected, and so
    is a metadata that is not an object; what the object holds is not
    checked, since the program never reads it."""
    doc = loads(data, "instance")
    (_, _, m, horizon, theta, seed, ceiling, profile, g, f, candidates,
     metadata) = _fields(doc, ("version", "kind", "m", "horizon", "theta",
                               "seed", "ceiling", "profile", "g", "f",
                               "candidates", "metadata"), "instance")
    _typed(candidates, list, "instance: candidates")
    reader = _Reader()
    with _parsing("instance"):
        inst = Instance(
            m=_typed(m, int, "instance: m"),
            seed=_typed(seed, int, "instance: seed"),
            horizon=_typed(horizon, int, "instance: horizon"),
            theta=_typed(theta, int, "instance: theta"),
            profile=profile, g=reader.pfn(g, "instance.g"),
            f=reader.pfn(f, "instance.f"),
            candidates=tuple(reader.pfn(c, f"instance.candidates[{i}]")
                             for i, c in enumerate(candidates)),
            metadata=metadata,
        )
    ceiling = _typed(ceiling, int, "instance: ceiling")
    _typed(metadata, dict, "instance: metadata")
    for i, c in enumerate(inst.candidates):
        if sorted(c.arity) != [1]:
            raise ParseError(f"instance.candidates[{i}]: must be unary, got "
                             f"arity {_shown(sorted(c.arity))}")
    if inst.m < 1:
        raise ParseError(f"instance: m = {_shown(inst.m)} is below 1")
    # the length first, so a huge m builds no index set
    if len(inst.g.arity) != inst.m or inst.g.arity != full_index(inst.m):
        raise ParseError(f"instance: m = {_shown(inst.m)} but g has arity "
                         f"{_shown(sorted(inst.g.arity))}")
    if not 1 <= inst.theta <= inst.horizon - 1:
        raise ParseError(f"instance: theta {_shown(inst.theta)} outside "
                         f"[1, {_shown(inst.horizon - 1)}]")
    if ceiling != inst.ceiling:
        raise ParseError(f"instance: ceiling {_shown(ceiling)} is not "
                         f"horizon * horizon + horizon = "
                         f"{_shown(inst.ceiling)}")
    if inst.profile not in PROFILES:
        raise ParseError(f"instance: unknown profile {_shown(inst.profile)}")
    return inst


# -- reports ----------------------------------------------------------


def report_dumps(report: dict) -> bytes:
    """Canonical bytes of a pipeline report.

    Timing is excluded so repeated runs serialize identically.
    """
    doc = {k: v for k, v in report.items() if k != "timing"}
    return dumps({**doc, "version": FORMAT_VERSION, "kind": "report"})

