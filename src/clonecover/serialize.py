"""Canonical, human-diffable JSON forms for instances, terms, and reports.

Points serialize as two-element arrays, tuples as index-keyed objects,
partial functions as entry lists sorted by domain tuple, terms as nested
tagged objects.  Every top-level document carries a version tag, and the
byte form is canonical (sorted keys, fixed separators), so equal values
serialize identically.
"""
from __future__ import annotations

import json
from contextlib import contextmanager

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
    full_index,
)
from .instances import PROFILES, Instance

FORMAT_VERSION = 1


class ParseError(ValueError):
    """Malformed or wrongly versioned serialized input."""


def _check_version(doc: dict, what: str) -> None:
    if not isinstance(doc, dict) or "version" not in doc:
        raise ParseError(f"{what}: missing version tag")
    if doc["version"] != FORMAT_VERSION:
        raise ParseError(
            f"{what}: unknown version {doc['version']!r} "
            f"(expected {FORMAT_VERSION})"
        )


@contextmanager
def _parsing(what: str):
    """Report the lookup, type and value errors of a malformed document as
    a ParseError about ``what``."""
    try:
        yield
    except ParseError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ParseError(f"{what}: {detail}") from exc


def dumps(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def loads(data: bytes, what: str = "document") -> dict:
    try:
        doc = json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"{what}: {exc}") from exc
    _check_version(doc, what)
    return doc


# -- value forms ------------------------------------------------------


def point_json(p: Point) -> list:
    return [p.x, p.y]


def point_parse(obj) -> Point:
    if not (isinstance(obj, list) and len(obj) == 2):
        raise ParseError(f"bad point {obj!r}")
    try:
        x, y = int(obj[0]), int(obj[1])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad point {obj!r}: {exc}") from exc
    if x < 0 or y < 0:
        raise ParseError(f"bad point {obj!r}: negative coordinate")
    return Point(x, y)


def mtuple_json(u: MTuple) -> dict:
    return {str(i): point_json(p) for i, p in u}


def mtuple_parse(obj) -> MTuple:
    if not isinstance(obj, dict):
        raise ParseError(f"bad tuple {obj!r}")
    try:
        return MTuple.of({int(i): point_parse(p) for i, p in obj.items()})
    except ValueError as exc:
        raise ParseError(f"bad tuple {obj!r}: {exc}") from exc


def pfn_json(p: PartialFn) -> dict:
    value_json = point_json if p.is_point_valued() else mtuple_json
    return {
        "arity": sorted(p.arity),
        "codomain": None if p.codomain is None else sorted(p.codomain),
        "graph": [[mtuple_json(u), value_json(v)] for u, v in p.sorted_items()],
    }


def pfn_parse(obj) -> PartialFn:
    if not isinstance(obj, dict) or "graph" not in obj:
        raise ParseError(f"bad partial function {obj!r}")
    with _parsing("partial function"):
        codomain = obj.get("codomain")
        value_parse = point_parse if codomain is None else mtuple_parse
        graph = {mtuple_parse(u): value_parse(v) for u, v in obj["graph"]}
        return PartialFn(
            frozenset(obj["arity"]),
            graph,
            None if codomain is None else frozenset(codomain),
        )


# -- terms ------------------------------------------------------------


def _node_json(node) -> dict:
    if isinstance(node, Proj):
        return {"t": "proj", "k": node.k}
    return {
        "t": "app",
        "name": node.name,
        "children": [_node_json(ch) for ch in node.children],
    }


def _node_parse(obj):
    if not isinstance(obj, dict) or "t" not in obj:
        raise ParseError(f"bad term node {obj!r}")
    with _parsing("term node"):
        if obj["t"] == "proj":
            return Proj(int(obj["k"]))
        if obj["t"] == "app":
            return App(obj["name"],
                       tuple(_node_parse(ch) for ch in obj["children"]))
    raise ParseError(f"unknown term node tag {obj['t']!r}")


def term_json(t: Term) -> dict:
    return {
        "version": FORMAT_VERSION,
        "kind": "term",
        "arity": sorted(t.arity),
        "root": _node_json(t.root),
        "env": {
            name: {"kind": b.kind, "fn": pfn_json(b.fn)}
            for name, b in sorted(t.env.items())
        },
    }


def term_parse(doc: dict) -> Term:
    _check_version(doc, "term")
    with _parsing("term"):
        env = {
            name: AtomBinding(pfn_parse(b["fn"]), b["kind"])
            for name, b in doc["env"].items()
        }
        term = Term(
            root=_node_parse(doc["root"]),
            env=env,
            arity=frozenset(doc["arity"]),
        )
        _check_well_formed(term)
    return term


def _check_well_formed(t: Term) -> None:
    """Reject what evaluation would trip over: an atom of unknown kind, a
    projection outside the arity, an unbound atom, or an atom applied to a
    child count other than its arity."""
    for name, b in t.env.items():
        if b.kind not in (CI_ATOM, WITNESS_ATOM):
            raise ParseError(f"term: atom {name!r} has unknown kind {b.kind!r}")
    stack = [t.root]
    while stack:
        node = stack.pop()
        if isinstance(node, Proj):
            if node.k not in t.arity:
                raise ParseError(f"term: projection {node.k} outside arity "
                                 f"{sorted(t.arity)}")
            continue
        if node.name not in t.env:
            raise ParseError(f"term: unbound atom {node.name!r}")
        arity = len(t.env[node.name].fn.arity)
        if len(node.children) != arity:
            raise ParseError(f"term: atom {node.name!r} has arity {arity}, "
                             f"applied to {len(node.children)} children")
        stack.extend(node.children)


def term_dumps(t: Term) -> bytes:
    return dumps(term_json(t))


def term_loads(data: bytes) -> Term:
    return term_parse(loads(data, "term"))


# -- instances --------------------------------------------------------


def instance_json(inst: Instance) -> dict:
    return {
        "version": FORMAT_VERSION,
        "kind": "instance",
        "m": inst.m,
        "horizon": inst.horizon,
        "theta": inst.theta,
        "seed": inst.seed,
        "ceiling": inst.ceiling,
        "profile": inst.profile,
        "g": pfn_json(inst.g),
        "f": pfn_json(inst.f),
        "candidates": [pfn_json(c) for c in inst.candidates],
        "metadata": inst.metadata,
    }


def instance_parse(doc: dict) -> Instance:
    _check_version(doc, "instance")
    with _parsing("instance"):
        inst = Instance(
            m=int(doc["m"]),
            horizon=int(doc["horizon"]),
            theta=int(doc["theta"]),
            seed=int(doc["seed"]),
            ceiling=int(doc["ceiling"]),
            profile=doc["profile"],
            g=pfn_parse(doc["g"]),
            f=pfn_parse(doc["f"]),
            candidates=tuple(pfn_parse(c) for c in doc["candidates"]),
            metadata=doc["metadata"],
        )
    for name in ("g", "f"):
        codomain = getattr(inst, name).codomain
        if codomain is not None:
            raise ParseError(f"instance: {name} must be point-valued, got "
                             f"codomain {sorted(codomain)}")
    for i, c in enumerate(inst.candidates):
        if sorted(c.arity) != [1] or c.codomain is not None:
            raise ParseError(
                f"instance: candidate {i} must be unary point-valued, got "
                f"arity {sorted(c.arity)} and codomain "
                f"{None if c.codomain is None else sorted(c.codomain)}")
    if inst.m < 1:
        raise ParseError(f"instance: m = {inst.m} is below 1")
    if inst.g.arity != full_index(inst.m):
        raise ParseError(f"instance: m = {inst.m} but g has arity "
                         f"{sorted(inst.g.arity)}")
    if not 1 <= inst.theta <= inst.horizon - 1:
        raise ParseError(f"instance: theta {inst.theta} outside "
                         f"[1, {inst.horizon - 1}]")
    if inst.profile not in PROFILES:
        raise ParseError(f"instance: unknown profile {inst.profile!r}")
    return inst


def instance_dumps(inst: Instance) -> bytes:
    return dumps(instance_json(inst))


def instance_loads(data: bytes) -> Instance:
    return instance_parse(loads(data, "instance"))


# -- reports ----------------------------------------------------------


def report_json(report: dict) -> dict:
    """Canonical form of a pipeline report.

    Timing is excluded so repeated runs serialize identically.
    """
    doc = {k: v for k, v in report.items() if k != "timing"}
    doc["version"] = FORMAT_VERSION
    doc["kind"] = "report"
    return doc


def report_dumps(report: dict) -> bytes:
    return dumps(report_json(report))


def report_loads(data: bytes) -> dict:
    return loads(data, "report")
