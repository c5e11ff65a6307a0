"""A naive reference reading of least bound and thriftiness.

Tests check the program's verdicts against this module, so it shares no
code with `clonecover.analysis`: it imports only `core`'s data types,
splits fibers by hand, finds a least bound by counting up from 0 and
orders the subsets S itself.  Everything here is deliberately slow.
"""
import itertools

from clonecover.core import MTuple, PartialFn


def least_bound(tuples):
    """The least k such that every tuple has some component with y < k.

    0-ary tuples have no component; they count as bounded by 0, the
    reading the program takes for the fibers at S = the whole arity.
    """
    tuples = list(tuples)
    if any(not u for u in tuples):
        return 0
    k = 0
    while not all(any(p.y < k for _, p in u) for u in tuples):
        k += 1
    return k


def value_bounds(p):
    """{value: least bound of its whole preimage}, values in order of
    first occurrence."""
    return {v: least_bound(u for u, w in p.graph.items() if w == v)
            for v in dict.fromkeys(p.graph.values())}


def split(p, theta):
    """(thrifty, wasteful): dom(p) cut by whether its value's preimage has
    least bound at most theta."""
    bounds = value_bounds(p)
    thrifty = frozenset(u for u, v in p.graph.items() if bounds[v] <= theta)
    return thrifty, frozenset(p.graph) - thrifty


def fibers(g, s):
    """{c: the fiber of g at c}, over the S-parts c occurring in dom(g) in
    sorted order; each fiber maps the rest of a tuple to g's value."""
    def part(u, inside):
        return MTuple(tuple(e for e in u if (e[0] in s) == inside))

    return {c: PartialFn(g.arity - s, {part(u, False): v
                                       for u, v in g.graph.items()
                                       if part(u, True) == c}, g.codomain)
            for c in sorted({part(u, True) for u in g.graph})}


def fiber_bounds(g, s):
    """{c: {value: least bound}} of every fiber of g at S."""
    return {c: value_bounds(p) for c, p in fibers(g, s).items()}


def subsets(arity):
    """Every S of the arity, by size and then lexicographic: the sweep
    order."""
    members = sorted(arity)
    return [frozenset(c) for n in range(len(members) + 1)
            for c in itertools.combinations(members, n)]


def first_wasteful(q, theta):
    """The first (S, c, value) with a wasteful value in q's fiber at c, S in
    sweep order and the least such value; None when q is hereditarily
    thrifty at theta."""
    for s in subsets(q.arity):
        for c, p in fibers(q, s).items():
            wasteful = split(p, theta)[1]
            if wasteful:
                return s, c, min(p.graph[z] for z in wasteful)
    return None
