"""A naive reference reading of least bound, thriftiness and K-tables, of
the witness's unary reduction and normalization, and the paper's prefix
operators.

Tests check the program's verdicts against this module, so it shares no
code with `clonecover.analysis`: it imports only `core`'s types,
splits fibers by hand, finds a least bound by counting up from 0 and
orders the subsets S itself.  Everything here is deliberately slow.

The operators (star, hash, fiber, disjoint union, shrinking an inner map)
build every function they return with the checked `PartialFn`
constructor.  A function is point-valued; where the paper means a
tuple-valued one (an inner map, and c#g), the operators take and return a
plain {tuple: tuple} map.  The program's decomposition stage builds its
maps directly; the algebra-law criterion and `TestStageMatchesAlgebra`
rebuild them through these.

`reduce_to_unary` and `normalize` read the witness the slow way, rebuilding
every tuple and the whole normalized graph from the witness, where
`clonecover.synth` builds f* from the horizon alone.

`certify_every_pair` is the main lemma's certification the slow way: a
certificate for every value line and every permutation, where
`clonecover.synth` certifies only the pairs some entry qualifies under.
It reads every K off q as the table's input parts list it, through
`fiber` and `k_table`, and none from the program.
"""
import itertools

from clonecover.core import (IndexMismatchError, MTuple, OverlapError,
                             PartialFn, Point)


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


def k_table(p):
    """{line: least bound of the line's preimage} of a point-valued p, in
    line order."""
    return {n: least_bound(u for u, v in p.graph.items() if v.y == n)
            for n in sorted({v.y for v in p.graph.values()})}


def _part(u, s, inside):
    """The S-part of the tuple u, or (inside false) the rest of it."""
    return MTuple(tuple(e for e in u if (e[0] in s) == inside))


def tuple_bounds(g, s):
    """(keys, bounds) over dom(g) in graph order: each tuple's S-part, and
    the least bound of the rest of the tuple alone."""
    return ([_part(u, s, True) for u in g.graph],
            [least_bound([_part(u, s, False)]) for u in g.graph])


def fibers(g, s):
    """{c: the fiber of g at c}, over the S-parts c occurring in dom(g) in
    sorted order; each fiber maps the rest of a tuple to g's value."""
    return {c: PartialFn(g.arity - s, {_part(u, s, False): v
                                       for u, v in g.graph.items()
                                       if _part(u, s, True) == c})
            for c in sorted({_part(u, s, True) for u in g.graph})}


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
    return PartialFn(g.arity - s, {_part(u, s, False): v
                                   for u, v in g.graph.items()
                                   if _part(u, s, True) == c})


def star_set(c, tuples):
    """Prefix every tuple of the set with the fixed S-tuple c."""
    return frozenset(c.union(z) for z in tuples)


def star_fn(c, g):
    """c*g: g with the fixed block c glued onto each domain tuple."""
    return PartialFn(c.indices | g.arity,
                     {c.union(z): v for z, v in g.graph.items()})


def hash_fn(c, g):
    """c#g, for a plain map g from T-tuples to T-tuples: the block c glued
    onto both sides of every entry."""
    return {c.union(z): c.union(w) for z, w in g.items()}


def disjoint_union(parts):
    """The union of functions, or of plain maps, with pairwise disjoint
    domains: a function over the first part's arity, or a plain map."""
    graph = {}
    for p in parts:
        for u, v in getattr(p, "graph", p).items():
            if u in graph:
                raise OverlapError(f"domains overlap at {u!r}")
            graph[u] = v
    if isinstance(parts[0], PartialFn):
        return PartialFn(parts[0].arity, graph)
    return graph


def shrink_inner(g, g_prime, h_prime):
    """The plain map h' restricted to dom(g), so that g = g' o h exactly;
    g must be a subfunction of g' o h'."""
    for u, v in g.graph.items():
        if g_prime.graph.get(h_prime.get(u)) != v:
            raise ValueError(f"g is not contained in g' o h' at {u!r}")
    return {u: w for u, w in h_prime.items() if u in g.graph}


# -- witness reduction and normalization ------------------------------


class AdmissibilityError(RuntimeError):
    """The reference readings' refusal; tests compare it with the
    program's `AdmissibilityError` by class name and message."""


def _code(n, k):
    return n * n + k


def _width(points):
    lines = [p.y for p in set(points)]
    return max((lines.count(y) for y in lines), default=0)


def _slices(points):
    by_line = {}
    for p in sorted(points):
        by_line.setdefault(p.y, []).append(p)
    depth = max((len(ps) for ps in by_line.values()), default=0)
    return [frozenset(ps[t] for ps in by_line.values() if len(ps) > t)
            for t in range(depth)]


def _blows_up(p):
    dom_points = {u.points()[0] for u in p.domain()}
    return any(_width(p.graph[MTuple.of({1: d})] for d in sl) > 1
               for sl in _slices(dom_points))


def reduce_to_unary(f, candidates):
    """The first composite of f with a candidate tuple, in lexicographic
    order, that maps some width-1 slice of its domain to width above 1;
    an f of arity below 2 as is."""
    if len(f.arity) < 2:
        return f
    arity = sorted(f.arity)
    for c in candidates:
        if sorted(c.arity) != [1]:
            raise IndexMismatchError("candidates must be unary point-valued")
    for combo in itertools.product(candidates, repeat=len(arity)):
        graph = {}
        common = set.intersection(*(set(c.domain()) for c in combo))
        for d in sorted(common):
            args = MTuple.of({
                i: combo[pos].graph[d] for pos, i in enumerate(arity)
            })
            if args in f.graph:
                graph[d] = f.graph[args]
        composite = PartialFn(frozenset({1}), graph)
        if _blows_up(composite):
            return composite
    raise AdmissibilityError("no unary witness in candidate set")


def normalize(f_unary, horizon):
    """(f*, relabel_domain, line_map, row_map) of a unary witness: target
    lines n = horizon-1 .. 1 each take the smallest-label unused image line
    with at least n points, its points by x and each point's least-y
    preimage, and f* sends (0 | n^2+k) to (k | n)."""
    if sorted(f_unary.arity) != [1]:
        raise IndexMismatchError("witness must be unary and point-valued")
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    by_line = {}
    pre_of = {}
    for u, v in sorted(f_unary.graph.items(),
                       key=lambda it: it[0].points()[0].y):
        if v not in pre_of:
            pre_of[v] = u.points()[0]
    for v, d in pre_of.items():
        by_line.setdefault(v.y, []).append((v, d))
    for line in by_line:
        by_line[line].sort(key=lambda vd: vd[0].x)

    chosen_line = {}
    used_lines = set()
    for n in range(horizon - 1, 0, -1):
        options = [line for line, pts in sorted(by_line.items())
                   if line not in used_lines and len(pts) >= n]
        if not options:
            raise AdmissibilityError(
                f"no unused image line with at least {n} points")
        chosen_line[n] = options[0]
        used_lines.add(options[0])

    line_map, row_map, relabel_domain = {}, {}, {}
    graph = {Point(0, 0): Point(0, 0)}
    for n in range(1, horizon):
        line = chosen_line[n]
        line_map[line] = n
        for k in range(n):
            v, d = by_line[line][k]
            if d.x != 0:
                raise AdmissibilityError(
                    f"witness preimage {d!r} is off the x=0 column")
            if v.x in row_map and row_map[v.x] != k:
                raise AdmissibilityError(
                    f"row {v.x} cannot be relabeled consistently")
            row_map[v.x] = k
            code = Point(0, _code(n, k))
            relabel_domain[code] = d
            graph[code] = Point(k, n)
    f_star = PartialFn(frozenset({1}), {
        MTuple.of({1: p}): v for p, v in graph.items()})
    return f_star, relabel_domain, line_map, row_map


# -- the main lemma's certificates, every pair ------------------------


def certify_every_pair(q_table, factors, m):
    """A uniqueness certificate for every (value line of the table, perm of
    1..m) pair, lines ascending and perms in lexicographic order, as
    (line, perm, candidate, qualifying, passed, detail) tuples.

    An entry qualifies when it lies in the product of the width-1 factors
    (a line a factor does not list holds column 0) and its lines rise
    along perm.  The candidate follows the K chain: the fiber fixed so far
    gives a bound at the line, the (S, j) factor a line there and the j-th
    input factor a column on it.  Each bound is the `k_table` of that
    fiber of q, which the table's input parts list with q's values.  A pair
    no entry qualifies under passes: "vacuous" when its chain is complete,
    with no detail when it is not.
    """
    indices = list(range(1, m + 1))
    keys = indices + [(s, j) for s in subsets(indices) for j in indices
                      if j not in s]
    q = PartialFn(frozenset(indices), {
        _part(uv, frozenset(indices), True): v
        for uv, v in q_table.graph.items()})
    k_tables = {}  # (S, c) -> k_table of q's fiber at c, on first read
    in_product = [uv for uv in sorted(q_table.graph)
                  if all(factors[key].get(uv[slot].y, 0) == uv[slot].x
                         for slot, key in enumerate(keys, 1))]
    certs = []
    for n in sorted({v.y for v in q_table.graph.values()}):
        for perm in itertools.permutations(indices):
            qualifying = tuple(
                uv for uv in in_product if q_table.graph[uv].y == n
                and all(uv[a].y <= uv[b].y for a, b in zip(perm, perm[1:])))
            candidate = {}
            for step, j in enumerate(perm):
                s = frozenset(perm[:step])
                c = MTuple.of(candidate)
                if (s, c) not in k_tables:
                    k_tables[s, c] = k_table(fiber(q, s, c))
                table = k_tables[s, c]
                if n not in table:
                    break
                line = factors[(s, j)].get(table[n], 0)
                candidate[j] = Point(factors[j].get(line, 0), line)
            if len(candidate) < m:
                detail = ("qualifying entry despite missing K chain"
                          if qualifying else "")
            elif not qualifying:
                detail = "vacuous"
            elif len(qualifying) > 1:
                detail = "more than one qualifying entry"
            elif any(qualifying[0][j] != candidate[j] for j in indices):
                detail = "qualifying entry differs from candidate"
            else:
                detail = ""
            passed = detail in ("", "vacuous")
            certs.append((n, perm, candidate, qualifying, passed, detail))
    return certs
