import random

import pytest

from clonecover.core import MTuple, PartialFn, Point, full_index
from clonecover.decompose import DecompositionTrace, verify_decomposition


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


def stage_check(g, stage, theta, what):
    """The verifier's check ``S=[...]: what`` on the one-stage trace of g."""
    trace = DecompositionTrace(theta, [stage], stage.g_prime, stage.h)
    name = f"S={sorted(stage.s)}: {what}"
    (check,) = [c for c in verify_decomposition(g, trace)["checks"]
                if c["name"] == name]
    return check


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


def random_tuple_fn(rng, arity, codomain, size=None, span=20):
    size = rng.randint(1, 8) if size is None else size
    graph = {}
    for _ in range(size):
        graph[random_tuple(rng, arity, span)] = random_tuple(rng, codomain, span)
    return PartialFn(arity, graph, codomain)


@pytest.fixture
def rng():
    return random.Random(12345)
