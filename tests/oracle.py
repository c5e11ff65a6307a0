"""A naive reference reading of least bound and thriftiness, and the
paper's prefix operators.

Tests check the program's verdicts against this module, so it shares no
code with `clonecover.analysis`: it imports only `core`'s types,
splits fibers by hand, finds a least bound by counting up from 0 and
orders the subsets S itself.  Everything here is deliberately slow.

The operators (star, hash, fiber, disjoint union, shrinking an inner map)
build every result with the checked `PartialFn` constructor.  The
program's decomposition stage builds its maps directly; the algebra-law
criterion and `TestStageMatchesAlgebra` rebuild them through these.
"""
import itertools

from clonecover.core import MTuple, OverlapError, PartialFn


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


def fiber(g, s, c):
    """The fiber of g at the S-part c: the function of the rest of a tuple
    whose S-part is c; empty when no tuple of dom(g) has S-part c."""
    return fibers(g, s).get(c, PartialFn(g.arity - s, {}, g.codomain))


def star_set(c, tuples):
    """Prefix every tuple of the set with the fixed S-tuple c."""
    return frozenset(c.union(z) for z in tuples)


def star_fn(c, g):
    """c*g: g with the fixed block c glued onto each domain tuple."""
    return PartialFn(c.indices | g.arity,
                     {c.union(z): v for z, v in g.graph.items()}, g.codomain)


def hash_fn(c, g):
    """c#g, for g from T-tuples to T-tuples: the block c glued onto both
    sides of every entry."""
    arity = c.indices | g.arity
    return PartialFn(arity, {c.union(z): c.union(w)
                             for z, w in g.graph.items()}, arity)


def disjoint_union(parts):
    """The union of functions with pairwise disjoint domains, over the
    first part's arity and codomain."""
    graph = {}
    for p in parts:
        for u, v in p.graph.items():
            if u in graph:
                raise OverlapError(f"domains overlap at {u!r}")
            graph[u] = v
    return PartialFn(parts[0].arity, graph, parts[0].codomain)


def shrink_inner(g, g_prime, h_prime):
    """h' restricted to dom(g), so that g = g' o h exactly; g must be a
    subfunction of g' o h'."""
    for u, v in g.graph.items():
        if g_prime.graph.get(h_prime.graph.get(u)) != v:
            raise ValueError(f"g is not contained in g' o h' at {u!r}")
    return h_prime.restrict(g.graph)
