import dataclasses
import itertools
import random

import pytest

from clonecover.analysis import tuple_bounds
from clonecover.core import ORIGIN, MTuple, PartialFn, Point, full_index
from clonecover.decompose import (
    DecompositionTrace,
    strong_decompose_stage,
    verify_decomposition,
)
from clonecover.synth import fiber_k_tables


BULK_SALT = 0xB0_1C  # decorrelates the bulk tuples from the generator's rng
BULK_REUSE = 0.3  # share of bulk tuples that reuse a value


def grown(inst, size):
    """inst with dom(g) grown to ``size`` as the benchmark's bulk step
    (``perfbench.harness.enlarge``) grows it, which GOLDEN_BULK in
    test_golden pins: bulk tuples lie below theta, a value is reused with
    probability BULK_REUSE (never a planted one), and fresh values avoid
    every value in use.  A metadata without ``features`` plants none."""
    rng = random.Random(inst.seed ^ BULK_SALT)
    graph = dict(inst.g.graph)
    planted = {Point(*f["value"])
               for f in inst.metadata.get("features", ())}
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
    return dataclasses.replace(inst, g=PartialFn(inst.g.arity, graph))


def idx(*members):
    """The index set of the given members."""
    return frozenset(members)


def bound_of(tuples):
    """The program's least bound of a tuple set: the largest `tuple_bounds`
    entry at S = {} of a function sending every tuple to one value, 0 when
    the set is empty."""
    graph = dict.fromkeys(tuples, ORIGIN)
    arity = next(iter(graph)).indices if graph else frozenset()
    return max(tuple_bounds(PartialFn(arity, graph), frozenset()),
               default=0)


def k_table_of(t, theta):
    """The program's K-table of a unary point-valued t, in line order: each
    line's K as its tuples' `fiber_k_tables` column at S = {}, the one S
    short of t's arity, reads it."""
    column = fiber_k_tables(t, theta)[0].get(frozenset(), [])
    return dict(sorted(zip((v.y for v in t.graph.values()), column)))


def pt(x, y):
    return Point(x, y)


def tup(*points):
    """An M-tuple over {1..m} from bare (x, y) pairs."""
    return MTuple.of({i + 1: Point(*p) for i, p in enumerate(points)})


def unary(mapping):
    """A unary point-valued function from a {point: point} dict."""
    return PartialFn(full_index(1), {
        MTuple.of({1: Point(*u)}): Point(*v) for u, v in mapping.items()
    })


def relabeled(f, nw, code):
    """The unary witness f read through the relabelings ``nw``: f at the
    preimage of (0 | code), its row and line relabeled; (k | n) at code
    n (+) k wherever the normalization holds, None off its domain."""
    d = nw.relabel_domain.get(code)
    v = None if d is None else f.graph.get(MTuple.of({1: d}))
    return v and Point(nw.row_map.get(v.x), nw.line_map.get(v.y))


def inner_map(g, stage):
    """A stage's inner map over the g it swept, as a full plain map: each
    tuple to its ``moved`` target, every other tuple to itself."""
    return {u: stage.moved.get(u, u) for u in g.graph}


def stage_check(g, stage, theta, what):
    """The verifier's check ``S=[...]: what`` on the one-stage trace of g."""
    trace = DecompositionTrace(theta, [stage], stage.g_prime,
                               inner_map(g, stage))
    name = f"S={sorted(stage.s)}: {what}"
    (check,) = [c for c in verify_decomposition(g, trace).checks
                if c["name"] == name]
    return check


def trace_over(g, subsets, theta, stage_thetas=None):
    """A decomposition trace of g at theta whose strong stages sweep
    ``subsets`` in the given order, each at its own threshold (default
    theta).  Its composed inner map is the reference reading: the left fold
    of the stages' inner maps, each expanded to a full map, starting from
    the identity on dom(g)."""
    current = g
    h_total = {u: u for u in g.graph}
    stages = []
    for s, stage_theta in zip(subsets, stage_thetas or [theta] * len(subsets)):
        stage = strong_decompose_stage(current, s, stage_theta)
        stages.append(stage)
        h = inner_map(current, stage)
        h_total = {u: h[mid] for u, mid in h_total.items() if mid in h}
        current = stage.g_prime
    return DecompositionTrace(theta, stages, current, h_total)


def maximal_products(q_table, w):
    """Every factor product of width w that is maximal on the points the
    table's entries use, as {(slot, line): columns}: for each (slot, line),
    each choice of min(w, n) of the n columns the entries put there.  Any
    width-w product meets the table inside one of these, so together they
    reach every image a width-w product has."""
    columns: dict = {}
    for uv in q_table.graph:
        for i, p in uv.items():
            columns.setdefault((i, p.y), set()).add(p.x)
    places = sorted(columns)
    choices = [itertools.combinations(sorted(columns[place]),
                                      min(w, len(columns[place])))
               for place in places]
    for pick in itertools.product(*choices):
        yield dict(zip(places, map(frozenset, pick)))


def product_image(q_table, product):
    """The table's values on the entries whose every slot lies in the
    product, given as {(slot, line): columns}."""
    return {val for uv, val in q_table.graph.items()
            if all(p.x in product.get((i, p.y), ()) for i, p in uv.items())}


def random_point(rng, span=20):
    return Point(rng.randrange(span), rng.randrange(span))


def random_tuple(rng, arity, span=20):
    return MTuple.of({i: random_point(rng, span) for i in sorted(arity)})


def random_point_fn(rng, arity, size=None, span=20):
    size = rng.randint(1, 8) if size is None else size
    graph = {}
    for _ in range(size):
        graph[random_tuple(rng, arity, span)] = random_point(rng, span)
    return PartialFn(arity, graph)


def random_tuple_map(rng, arity, size=None, span=20):
    """A plain map from tuples over ``arity`` to tuples over it."""
    size = rng.randint(1, 8) if size is None else size
    graph = {}
    for _ in range(size):
        graph[random_tuple(rng, arity, span)] = random_tuple(rng, arity, span)
    return graph


@pytest.fixture
def rng():
    return random.Random(12345)
