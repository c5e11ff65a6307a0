"""Randomized algebra-law checks.

Every law here is an exact graph identity or inclusion; the generators are
deterministic (seeded rng or hypothesis with derandomized profiles), so a
failure is always reproducible.
"""
import copy
import functools
import itertools
import json
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st, target

from clonecover import serialize
from clonecover.analysis import (
    NotThriftyError,
    all_subsets,
    fiber_k,
    tuple_bounds,
    wasteful_pairs,
    width,
)
from clonecover.core import (
    App,
    AtomBinding,
    CI_ATOM,
    MTuple,
    ORIGIN,
    PartialFn,
    Point,
    Proj,
    Term,
    compile_term,
    compose,
    full_index,
)
from clonecover.decompose import (
    AdmissibilityError,
    countable_selection,
    strong_decompose_stage,
    verify_decomposition,
)
from clonecover.instances import PROFILES, Instance, generate_instance
from clonecover.synth import (
    assemble_term,
    build_h_family,
    end_to_end_synthesize,
    factor_keys,
    fiber_k_tables,
    normal_witness,
    normalize_f,
    oplus,
    reduce_to_unary,
    verify_Q_in_CI,
)

import oracle
from conftest import (
    bound_of,
    idx,
    inner_map,
    maximal_products,
    product_image,
    pt,
    random_point,
    random_point_fn,
    random_tuple,
    random_tuple_map,
    stage_check,
    trace_over,
    tup,
    unary,
)

points = st.builds(Point, st.integers(0, 30), st.integers(0, 30))
S = idx(1)
T = idx(2)


def random_prefix(rng):
    return MTuple.of({1: random_point(rng)})


class TestStarHashFiberLaws:
    def test_star_of_composition(self, rng):
        # c*(f o g) = (c*f) o (c#g)
        for _ in range(300):
            c = random_prefix(rng)
            g = random_tuple_map(rng, T)
            f = random_point_fn(rng, T)
            left = oracle.star_fn(c, compose(f, g))
            right = compose(oracle.star_fn(c, f), oracle.hash_fn(c, g))
            assert left == right

    def test_fiber_of_star_recovers(self, rng):
        # (c*g) fibered back at c gives g
        for _ in range(300):
            c = random_prefix(rng)
            g = random_point_fn(rng, T)
            assert oracle.fiber(oracle.star_fn(c, g), S, c) == g

    def test_reconstruction_and_uniqueness(self, rng):
        # g = union over occurring c of c*(fiber of g at c), and the fiber
        # decomposition with those domains is the only one
        for _ in range(300):
            g = random_point_fn(rng, idx(1, 2), size=rng.randint(1, 12))
            parts = {
                c: oracle.fiber(g, S, c) for c in oracle.fibers(g, S)
            }
            rebuilt = oracle.disjoint_union(
                [oracle.star_fn(c, p) for c, p in sorted(parts.items())]
            )
            assert rebuilt == g
            for c, p in parts.items():
                assert oracle.fiber(rebuilt, S, c) == p


small_points = st.builds(Point, st.integers(0, 2), st.integers(0, 2))


def tuples_over(index):
    """Tuples over the index set with small coordinates, so keys collide."""
    return st.lists(small_points, min_size=len(index),
                    max_size=len(index)).map(
        lambda ps: MTuple.of(dict(zip(sorted(index), ps))))


@st.composite
def partial_fns(draw, arity):
    """A function from tuples over ``arity`` to points."""
    entries = draw(st.lists(st.tuples(tuples_over(arity), small_points),
                            max_size=12))
    return PartialFn(arity, dict(entries))


index_sets = st.sets(st.integers(1, 3)).map(frozenset)


@st.composite
def fns_and_subsets(draw):
    """A function over a subset of {1, 2, 3} and a subset S of its
    arity."""
    arity = draw(index_sets)
    g = draw(partial_fns(arity))
    s = frozenset(draw(st.sets(st.sampled_from(sorted(arity))))
                  if arity else ())
    return g, s


point_fns = index_sets.flatmap(partial_fns)


class TestTupleBounds:
    @settings(max_examples=300, derandomize=True)
    @given(g=point_fns)
    def test_matches_least_bound_per_fiber(self, g):
        # the oracle reads every tuple and every fiber by hand and counts
        # each bound up; a value's least bound in its fiber is the largest
        # bound of its tuples there
        for s in all_subsets(sorted(g.arity)):
            keys, bounds = [u.restrict(s) for u in g.graph], tuple_bounds(g, s)
            assert (keys, bounds) == oracle.tuple_bounds(g, s)
            largest: dict = {}
            for c, v, k in zip(keys, g.graph.values(), bounds):
                largest[c, v] = max(largest.get((c, v), 0), k)
            assert largest == {(c, v): k for c, by_value
                               in oracle.fiber_bounds(g, s).items()
                               for v, k in by_value.items()}

    @settings(max_examples=300, derandomize=True)
    @given(q=point_fns, theta=st.integers(1, 3))
    def test_verdicts_match_the_oracle(self, q, theta):
        # the wasteful values of every fiber, and the first wasteful fiber
        # in sweep order, read off tuple_bounds as the program reads them;
        # wasteful_pairs makes the same cut, each pair with its bound
        first = None
        for s in all_subsets(sorted(q.arity)):
            keys, bounds = [u.restrict(s) for u in q.graph], tuple_bounds(q, s)
            assert wasteful_pairs(q, s, theta) == {
                (c, v): k for c, by_value in oracle.fiber_bounds(q, s).items()
                for v, k in by_value.items() if k > theta}
            for c, p in oracle.fibers(q, s).items():
                wasteful = {v for d, v, k in zip(keys, q.graph.values(),
                                                 bounds)
                            if d == c and k > theta}
                assert wasteful == {p.graph[z]
                                    for z in oracle.split(p, theta)[1]}
                if wasteful and first is None:
                    first = (s, c, min(wasteful))
        assert first == oracle.first_wasteful(q, theta)

    @settings(max_examples=200, derandomize=True)
    @given(tuples=index_sets.flatmap(
        lambda arity: st.sets(tuples_over(arity), max_size=8)))
    def test_least_bound_matches_the_oracle(self, tuples):
        assert bound_of(tuples) == oracle.least_bound(tuples)

    @settings(max_examples=300, derandomize=True)
    @given(q=point_fns, theta=st.integers(0, 3))
    # An empty q has no fiber to check theta on: {} at any theta.
    @example(q=PartialFn(idx(1, 2), {}), theta=0)
    @example(q=PartialFn(idx(1, 2), {}), theta=-1)
    def test_k_matches_per_fiber_k_table(self, q, theta):
        # the oracle's K-table of every fiber at every S: each tuple's K
        # in the K columns, short of the arity, and the lookup at every
        # (S, fiber key, line), None off the fiber's lines
        if q.graph and theta < 1:
            with pytest.raises(ValueError) as raised:
                fiber_k_tables(q, theta)
            assert not isinstance(raised.value, NotThriftyError)
            return
        first = oracle.first_wasteful(q, theta)
        if first is not None:
            # the least wasteful value of the first wasteful fiber
            s, c, v = first
            with pytest.raises(NotThriftyError) as raised:
                fiber_k_tables(q, theta)
            assert (raised.value.value, raised.value.bound) == (
                v, oracle.fiber_bounds(q, s)[c][v])
            return
        entry_k = fiber_k_tables(q, theta)[0]
        assert list(entry_k) == [s for s in oracle.subsets(q.arity)
                                 if s != q.arity]
        lines = sorted({v.y for v in q.graph.values()})
        on_line = {n: [u for u, v in q.graph.items() if v.y == n]
                   for n in lines}
        for s in oracle.subsets(q.arity):
            tables = {c: oracle.k_table(p)
                      for c, p in oracle.fibers(q, s).items()}
            if s != q.arity:
                assert entry_k[s] == [tables[u.restrict(s)][v.y]
                                      for u, v in q.graph.items()]
            for c, table in tables.items():
                for n in lines:
                    fiber = [u for u in on_line[n] if u.restrict(s) == c]
                    assert fiber_k(fiber, s) == table.get(n)

    def test_not_thrifty_names_the_least_wasteful_value(self):
        # Thrifty at S = {}; at S = {1} both fibers are wasteful.  The error
        # names the least key's fiber, though the other comes first in the
        # graph, and the least wasteful value there: not (0|1), which is
        # thrifty, nor (2|2), which comes first.  (1|1) has a thrifty tuple
        # (bound 1) beside wasteful ones (bounds 6 and 4), and its bound is
        # the largest of them.
        q = PartialFn(idx(1, 2), {
            tup((1, 0), (0, 9)): pt(0, 0),
            tup((0, 0), (4, 1)): pt(0, 1),
            tup((0, 0), (2, 7)): pt(2, 2),
            tup((0, 0), (1, 0)): pt(1, 1),
            tup((0, 0), (0, 5)): pt(1, 1),
            tup((0, 0), (3, 3)): pt(1, 1),
        })
        assert oracle.first_wasteful(q, 2) == (
            idx(1), MTuple.of({1: pt(0, 0)}), pt(1, 1))
        with pytest.raises(NotThriftyError) as raised:
            fiber_k_tables(q, 2)
        assert str(raised.value) == ("function is not thrifty at theta=2: "
                                     "value (1|1) has preimage bound 6")
        assert (raised.value.value, raised.value.bound) == (pt(1, 1), 6)


def algebra_stage(g, s, theta):
    """One decomposition sweep built through the operator algebra: star and
    hash each fiber's thrifty part and its selection, take the unions, and
    shrink the inner map back onto dom(g)."""
    thrifty_parts, wasteful_family = {}, {}
    for c, g_c in oracle.fibers(g, s).items():
        thrifty, wasteful = oracle.split(g_c, theta)
        thrifty_parts[c] = g_c.restrict(thrifty)
        if wasteful:
            wasteful_family[c] = g_c.restrict(wasteful)
    selection = countable_selection(
        {c: {v: [z for z, d in w_c.graph.items() if d == v]
             for v in w_c.graph.values()}
         for c, w_c in wasteful_family.items()},
        theta)
    g_parts = [PartialFn(g.arity, {})]
    h_parts = [{}]
    identity = set()
    for c, t_c in thrifty_parts.items():
        fiber_g = [t_c]
        fiber_h = [{z: z for z in t_c.graph}]
        if c in wasteful_family:
            w_c = wasteful_family[c]
            pick = {d: selection[(c, d)] for d in w_c.graph.values()}
            fiber_g.append(w_c.restrict(pick.values()))
            fiber_h.append({z: pick[v] for z, v in w_c.graph.items()})
        g_parts.append(oracle.star_fn(c, oracle.disjoint_union(fiber_g)))
        h_parts.append(oracle.hash_fn(c, oracle.disjoint_union(fiber_h)))
        identity.update(c.union(z) for z in t_c.domain())
    g_prime = oracle.disjoint_union(g_parts)
    h = oracle.shrink_inner(g, g_prime, oracle.disjoint_union(h_parts))
    return g_prime, h, frozenset(identity).intersection(h), selection


@st.composite
def stage_cases(draw):
    """A point-valued g over a non-empty subset of {1, 2, 3}, a subset S of
    its arity and a theta low enough that small coordinates are wasteful."""
    arity = draw(st.sets(st.integers(1, 3), min_size=1).map(frozenset))
    g = draw(partial_fns(arity))
    s = frozenset(draw(st.sets(st.sampled_from(sorted(arity)))))
    return g, s, draw(st.integers(1, 3))


class TestStageMatchesAlgebra:
    @settings(max_examples=300, derandomize=True)
    @given(case=stage_cases())
    @example(case=(unary({(0, 0): (1, 1), (0, 2): (1, 1), (1, 0): (2, 2)}),
                   frozenset(), 1))
    def test_direct_stage_equals_operator_construction(self, case):
        g, s, theta = case
        try:
            want = algebra_stage(g, s, theta)
        except AdmissibilityError:
            with pytest.raises(AdmissibilityError):
                strong_decompose_stage(g, s, theta)
            return
        g_prime, h, identity, selection = want
        # Most small draws reroute nothing; steer towards ones that do.
        target(float(len(h) - len(identity)))
        stage = strong_decompose_stage(g, s, theta)
        assert stage.g_prime == g_prime
        # g' lists g's thrifty entries, then the picks, each in g's order
        picks = {c.union(a) for (c, _), a in selection.items()}
        assert list(stage.g_prime.graph) == (
            [u for u in g.graph if u in identity]
            + [u for u in g.graph if u in picks])
        assert inner_map(g, stage) == h
        assert g.domain() - stage.moved.keys() == identity
        assert stage_check(g, stage, theta, "inner-map certificates")[
            "passed"]
        assert {(u.restrict(s), g.graph[u]): t.without(s)
                for u, t in stage.moved.items()} == selection


class TestUnionAndSubLaws:
    def split_into_disjoint(self, rng, graph):
        """Split a map into parts with pairwise disjoint domains."""
        parts = [dict() for _ in range(3)]
        for u, v in graph.items():
            parts[rng.randrange(3)][u] = v
        return parts

    def test_union_of_compositions_is_contained(self, rng):
        # union(f_n o g_n) is a subfunction of union(f_n) o union(g_n)
        for _ in range(300):
            inner = random_tuple_map(rng, T, size=rng.randint(1, 10))
            outer = random_point_fn(rng, T, size=rng.randint(1, 10))
            gs = self.split_into_disjoint(rng, inner)
            fs = [PartialFn(T, part)
                  for part in self.split_into_disjoint(rng, outer.graph)]
            left = oracle.disjoint_union(
                [compose(f, g) for f, g in zip(fs, gs)])
            right = compose(oracle.disjoint_union(fs),
                            oracle.disjoint_union(gs))
            assert left.is_subfunction_of(right)

    def test_shrink_inner_on_random_subfunctions(self, rng):
        for _ in range(300):
            h_prime = random_tuple_map(rng, T, size=rng.randint(1, 10))
            g_prime = random_point_fn(rng, T, size=rng.randint(1, 10))
            full = compose(g_prime, h_prime)
            if not full.graph:
                continue
            keep = [u for u in sorted(full.domain()) if rng.random() < 0.6]
            g = full.restrict(keep)
            h = oracle.shrink_inner(g, g_prime, h_prime)
            assert h.items() <= h_prime.items()
            assert compose(g_prime, h) == g


def thrifty(p, theta):
    """Whether every value of p has a preimage bound at most theta: every
    tuple's bound at S = {} is."""
    return max(tuple_bounds(p, frozenset()), default=0) <= theta


class TestBoundLaws:
    def test_least_bound_of_disjoint_union(self, rng):
        # the least bound of A u B is the max of the two bounds
        for _ in range(300):
            a = {random_tuple(rng, T) for _ in range(rng.randint(0, 8))}
            b = {random_tuple(rng, T) for _ in range(rng.randint(0, 8))} - a
            assert bound_of(a | b) == max(bound_of(a), bound_of(b))

    def test_disjoint_union_thrifty_iff_both(self, rng):
        theta = 8
        for _ in range(300):
            p1 = random_point_fn(rng, T, size=rng.randint(1, 6))
            p2 = random_point_fn(rng, T, size=rng.randint(1, 6))
            p2 = PartialFn(T, {
                u: v for u, v in p2.graph.items() if u not in p1.graph
            })
            if not p2.graph:
                continue
            both = thrifty(p1, theta) and thrifty(p2, theta)
            union_verdict = thrifty(oracle.disjoint_union([p1, p2]), theta)
            # The law needs value-disjointness too; a value shared between
            # the parts can merge two thrifty preimages into a wasteful one,
            # so only the forward direction is unconditional.
            if union_verdict:
                assert both
            vals1 = set(p1.graph.values())
            if not vals1 & set(p2.graph.values()):
                assert union_verdict == both

    def test_restriction_never_raises_bounds(self, rng):
        # at every S: the lemma behind verify_decomposition's coverage check.
        # A restriction keeps each tuple's key and bound, so no largest
        # bound over a value's or a line's tuples in a fiber rises.
        for _ in range(200):
            q = random_point_fn(rng, T, size=rng.randint(1, 10))
            keep = [u for u in sorted(q.domain()) if rng.random() < 0.5]
            sub = q.restrict(keep)
            for s in all_subsets(sorted(T)):
                full = dict(zip(q.graph, zip([u.restrict(s) for u in q.graph],
                                             tuple_bounds(q, s))))
                assert [full[u] for u in sub.graph] == list(
                    zip([u.restrict(s) for u in sub.graph],
                        tuple_bounds(sub, s)))
            # every y is below 20, so every bound is at most theta = 20;
            # no tuple's K, the largest bound on its fiber's line, rises
            k_full = fiber_k_tables(q, 20)[0]
            for s, column in fiber_k_tables(sub, 20)[0].items():
                k_of = dict(zip(q.graph, k_full[s]))
                assert all(k <= k_of[u] for u, k in zip(sub.graph, column))


class TestExtensionLaws:
    # Small coordinates bound every fiber's bounds by 3, so theta = 3 makes
    # every q hereditarily thrifty and z_j^y falls on both sides of K.
    @settings(max_examples=200, derandomize=True)
    @given(q=st.sets(st.integers(1, 3), min_size=1).map(frozenset).flatmap(
        partial_fns))
    def test_helpers_are_total_with_origin_off_the_bound(self, q):
        # every helper value exactly, K read off the oracle's K-table of
        # the fiber, and dom(q) listed in q's graph order
        pairs = tuple((s, j) for s in all_subsets(sorted(q.arity))
                      for j in sorted(q.arity - s))
        family = build_h_family(q, tuple(sorted(q.arity)) + pairs,
                                fiber_k_tables(q, 3))
        assert list(family) == list(pairs)
        for s, j in pairs:
            k_of = {c: oracle.k_table(p)
                    for c, p in oracle.fibers(q, s).items()}
            h = family[s, j]
            assert list(h.graph) == list(q.graph)
            for u, v in q.graph.items():
                big_k, y = k_of[u.restrict(s)][v.y], u[j].y
                assert h.graph[u] == (
                    Point(0, oplus(big_k, y)) if y < big_k else ORIGIN)


class TestPointLevelLaws:
    @settings(max_examples=200, derandomize=True)
    @given(c=points, zs=st.sets(points, max_size=8))
    def test_star_set_cardinality(self, c, zs):
        prefix = MTuple.of({1: c})
        a = {MTuple.of({2: z}) for z in zs}
        assert len(oracle.star_set(prefix, a)) == len(a)

    @settings(max_examples=200, derandomize=True)
    @given(ps=st.sets(points, max_size=20))
    def test_width_bounds(self, ps):
        w = width(ps)
        assert 0 <= w <= len(ps)
        assert w == max((sum(1 for p in ps if p.y == n) for n in
                         {p.y for p in ps}), default=0)

    @settings(max_examples=200, derandomize=True)
    @given(ps=st.sets(points, min_size=1, max_size=8))
    def test_least_bound_is_least(self, ps):
        a = [MTuple.of({1: p}) for p in ps]
        k = bound_of(a)
        assert all(u[1].y < k for u in a)
        assert not all(u[1].y < k - 1 for u in a)


@st.composite
def scrambled_witnesses(draw):
    """(horizon, unary witness) for horizons 3..8: image lines of sizes
    1..horizon-1 and a few more, over shared rows, some points with two
    preimages.  Each of unsorted rows, a missing or shrunk line and a
    preimage off x = 0, moved there or tied on y with another, may make
    normalization refuse it."""
    rng = draw(st.randoms(use_true_random=False))
    horizon = rng.randint(3, 8)
    ceiling = horizon * horizon + horizon
    rows = rng.sample(range(ceiling), horizon)
    if rng.random() < 0.85:
        rows.sort()
    sizes = list(range(1, horizon))
    sizes += [rng.randint(1, horizon) for _ in range(rng.randint(0, 2))]
    rng.shuffle(sizes)
    if rng.random() > 0.85:
        sizes.pop()
    if rng.random() > 0.85:
        sizes[0] -= 1
    lines = rng.sample(range(ceiling), len(sizes))
    labels = iter(rng.sample(range(1000), 2 * horizon * len(lines)))
    graph = {}
    for line, size in zip(lines, sizes):
        for x in rows[:size]:
            for _ in range(rng.choice((1, 1, 1, 2))):
                graph[tup((0, next(labels)))] = Point(x, line)
    if graph and rng.random() > 0.85:
        (_, (_, y)), = rng.choice(sorted(graph))
        graph[tup((rng.randint(1, 3), y))] = graph.pop(tup((0, y)))
    if graph and rng.random() > 0.85:
        # a second preimage tied on y, off x = 0: the first in graph order
        # wins the tie
        u = rng.choice(sorted(graph))
        (_, (_, y)), = u
        tie = {tup((rng.randint(1, 3), y)): graph[u]}
        graph = {**tie, **graph} if rng.random() > 0.5 else {**graph, **tie}
    return horizon, PartialFn(full_index(1), graph)


def outcome(fn, *args):
    """fn's result, or its refusal as (class name, message)."""
    try:
        return fn(*args)
    except (RuntimeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def items(*maps):
    """Each map's entries in order, so the comparison covers order too."""
    return [list(m.items()) for m in maps]


def reference_normalize(f, horizon):
    """The oracle's f* and relabelings, its (0 | c) domain keys read as
    the codes c that the program keys by."""
    f_star, relabel_domain, *maps = oracle.normalize(f, horizon)
    assert all(p.x == 0 for p in relabel_domain)
    by_code = {p.y: d for p, d in relabel_domain.items()}
    return items(f_star.graph, by_code, *maps)


class TestWitnessMatchesOracle:
    """The witness path against its slow reference reading in `oracle`:
    the same f*, relabelings and composite, or the same refusal."""

    @settings(max_examples=30, derandomize=True)
    @given(case=scrambled_witnesses())
    def test_normalize(self, case):
        horizon, f = case

        def program():
            nw = normalize_f(f, horizon)
            return items(normal_witness(horizon).graph, nw.relabel_domain,
                         nw.line_map, nw.row_map)

        assert outcome(program) == outcome(reference_normalize, f, horizon)

    @settings(max_examples=20, derandomize=True)
    @given(case=scrambled_witnesses(), rng=st.randoms(use_true_random=False))
    def test_reduce_to_unary(self, case, rng):
        binary, candidates = binary_witness(case[1], rng)

        def run(reduce):
            return items(reduce(binary, candidates).graph)

        assert (outcome(run, reduce_to_unary)
                == outcome(run, oracle.reduce_to_unary))

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("profile", PROFILES)
    def test_at_the_benchmark_horizon(self, seed, profile):
        # The drawn witnesses stop at horizon 8; horizon-m3 runs 64.
        inst = generate_instance(3, 64, 32, seed, profile)
        f = reduce_to_unary(inst.f, inst.candidates)
        assert items(f.graph) == items(
            oracle.reduce_to_unary(inst.f, inst.candidates).graph)
        nw = normalize_f(f, 64)
        assert (items(normal_witness(64).graph, nw.relabel_domain,
                      nw.line_map, nw.row_map) == reference_normalize(f, 64))


def binary_witness(f, rng):
    """(binary, candidates) for a unary witness f: f(u, anchor) = f(u),
    recovered through (ident, const); a decoy sends half the support into
    it or off it.  The candidates come in a drawn order, and without ident
    the search may exhaust them."""
    support = sorted(u.points()[0] for u in f.graph)
    anchor = rng.choice(support)
    binary = PartialFn(idx(1, 2), {tup(u.points()[0], anchor): v
                                   for u, v in f.graph.items()})
    ident = unary({p: p for p in support})
    const = unary({p: anchor for p in support})
    decoy = unary({p: rng.choice((rng.choice(support), (p.x + 1, p.y)))
                   for p in rng.sample(support, len(support) // 2)})
    candidates = [const, decoy]
    if rng.random() < 0.75:
        candidates.append(ident)
    rng.shuffle(candidates)
    return binary, candidates


def assert_valid(out):
    """A result built without checks passes the checked constructor."""
    assert isinstance(out.arity, frozenset)
    assert out == PartialFn(out.arity, out.graph)


class TestTrustedResults:
    """The algebra's results skip the constructor's checks; they must be
    exactly what the checks accept."""

    @settings(max_examples=100, derandomize=True)
    @given(data=st.data(), arity=index_sets)
    def test_compose(self, data, arity):
        # the inner map's images are often in dom(outer), so some compose
        outer = data.draw(partial_fns(arity))
        images = st.sampled_from(sorted(outer.graph)) if outer.graph else (
            tuples_over(arity))
        inner = data.draw(st.dictionaries(
            tuples_over(arity), st.one_of(images, tuples_over(arity)),
            max_size=12))
        assert_valid(compose(outer, inner))

    @settings(max_examples=100, derandomize=True)
    @given(data=st.data(), arity=index_sets)
    def test_component(self, data, arity):
        # assemble_term splits the composed inner map into one point-valued
        # atom per index; the atoms rebuild each image
        g = data.draw(partial_fns(arity))
        inner = {u: data.draw(tuples_over(arity)) for u in g.graph}
        env = assemble_term(g, g, {}, g, (), inner).env
        parts = [env[f"inner[{i}]"].fn for i in sorted(arity)]
        for part in parts:
            assert_valid(part)
        assert {u: MTuple.of({i: part.graph[u]
                              for i, part in zip(sorted(arity), parts)})
                for u in g.graph} == inner

    @settings(max_examples=20, derandomize=True)
    @given(case=scrambled_witnesses(), rng=st.randoms(use_true_random=False))
    def test_reduce_to_unary(self, case, rng):
        binary, candidates = binary_witness(case[1], rng)
        try:
            composite = reduce_to_unary(binary, candidates)
        except AdmissibilityError:
            return
        assert_valid(composite)

    @settings(max_examples=100, derandomize=True)
    @given(data=st.data(), case=fns_and_subsets())
    def test_disjoint_union_and_restrict(self, data, case):
        g, _ = case
        picks = data.draw(st.lists(st.integers(0, 2), min_size=len(g),
                                   max_size=len(g)))
        parts = [g.restrict(u for u, k in zip(g.graph, picks) if k == part)
                 for part in range(3)]
        for part in parts:
            assert_valid(part)
        assert oracle.disjoint_union(parts) == g


class TestSharedIndexSets:
    @settings(max_examples=100, derandomize=True)
    @given(data=st.data(), arity=index_sets)
    def test_indices_are_the_entry_indices(self, data, arity):
        u = data.draw(tuples_over(arity))
        assert u.indices == frozenset(i for i, _ in u)
        assert u.indices is u.indices

    @settings(max_examples=100, derandomize=True)
    @given(data=st.data(), arity=index_sets)
    def test_equal_index_sets_are_one_object(self, data, arity):
        u = data.draw(tuples_over(arity))
        w = MTuple(tuple((i, Point(p.y, p.x)) for i, p in u))
        assert u.indices is w.indices

    def test_tuples_have_no_instance_dict(self):
        u = MTuple.of({1: Point(0, 1), 2: Point(2, 3)})
        assert not hasattr(u, "__dict__")


class TestCanonicalOrder:
    @settings(max_examples=100, derandomize=True)
    @given(data=st.data(), arity=index_sets)
    def test_sorting_tuples_sorts_their_entries(self, data, arity):
        # The old canonical order compared the sorted entry tuples.
        us = data.draw(st.lists(tuples_over(arity), max_size=8))
        assert [tuple(u) for u in sorted(us)] == sorted(map(tuple, us))
        assert not hasattr(MTuple.empty(), "__dict__")


@st.composite
def swept_traces(draw):
    """A point-valued g over {1}, {1, 2} or {1, 2, 3} and a trace of strong
    stages over all subsets in sweep order, or (one draw in four) over
    drawn subsets; each
    stage at a threshold near the trace's.  None when a stage runs out of
    fresh low tuples."""
    arity = draw(st.sampled_from([idx(1), idx(1, 2), idx(1, 2, 3)]))
    g = draw(partial_fns(arity))
    theta = draw(st.integers(2, 3))
    subsets = all_subsets(sorted(arity))
    if draw(st.integers(0, 3)) == 3:
        subsets = draw(st.lists(st.sampled_from(subsets),
                                max_size=len(subsets) + 1))
    stage_thetas = [max(1, theta + draw(st.integers(-1, 1)))
                    for _ in subsets]
    try:
        return g, trace_over(g, subsets, theta, stage_thetas)
    except AdmissibilityError:
        return g, None


class TestDecompositionCoverage:
    @settings(max_examples=300, derandomize=True)
    @given(case=swept_traces())
    def test_per_stage_checks_and_coverage_imply_hereditary_thrift(self,
                                                                    case):
        g, trace = case
        if trace is None:
            return
        verdict = verify_decomposition(g, trace)
        passed = {c["name"]: c["passed"] for c in verdict.checks}
        covered = [stage.s for stage in trace.stages] == all_subsets(
            sorted(g.arity))
        assert passed["final g' hereditarily thrifty"] == covered
        # the program's composition of the stages' moves is the reference
        # fold that trace_over stored
        assert passed["composed inner map is the stages' composition"]
        target(float(verdict.passed))
        if verdict.passed:
            assert oracle.first_wasteful(trace.g_prime, trace.theta) is None

    @settings(max_examples=200, derandomize=True)
    @given(case=swept_traces())
    def test_fibers_thrifty_check_matches_the_oracle(self, case):
        # stages at thresholds other than the trace's leave some fibers
        # wasteful at it; the check must flag exactly those stages, each
        # naming its least wasteful fiber
        g, trace = case
        if trace is None:
            return
        checks = [(c["passed"], c["detail"])
                  for c in verify_decomposition(g, trace).checks
                  if c["name"].endswith(": fibers thrifty")]
        want = []
        for stage in trace.stages:
            wasteful = [c for c, p in oracle.fibers(stage.g_prime,
                                                    stage.s).items()
                        if oracle.split(p, trace.theta)[1]]
            want.append((not wasteful,
                         f"fiber {min(wasteful)!r}" if wasteful else ""))
        target(float(sum(not passed for passed, _ in want)))
        assert checks == want


@st.composite
def selector_tables(draw):
    """A tiny selector table for m = 1 (two slots) or m = 2 (six slots),
    with few columns per line so that entries clash, and values on two
    lines so that columns compete."""
    m = draw(st.sampled_from([1, 2]))
    arity = full_index(len(factor_keys(m)))
    slot_points = st.builds(Point, st.integers(0, 3 - m), st.integers(0, 2))
    entries = st.lists(slot_points, min_size=len(arity),
                       max_size=len(arity)).map(
        lambda ps: MTuple.of(dict(zip(sorted(arity), ps))))
    values = st.builds(Point, st.integers(0, 3), st.integers(0, 1))
    graph = draw(st.dictionaries(entries, values, max_size=7 - m))
    return PartialFn(arity, graph), m


class TestExactSelectorWidth:
    @settings(max_examples=200, derandomize=True)
    @given(case=selector_tables())
    def test_matches_brute_force_over_every_family(self, case):
        q_table, m = case
        verdict = verify_Q_in_CI(q_table, m)
        assert verdict.observed == max(
            (width(product_image(q_table, product))
             for product in maximal_products(q_table, 1)), default=0)
        assert verdict.bound == math.factorial(m)
        # the entries reaching it: one per column of the line, all in one
        # width-1 product
        entries = verdict.entries
        assert len(entries) == verdict.observed
        assert {q_table.graph[uv].y for uv in entries} <= {verdict.line}
        assert len({q_table.graph[uv].x for uv in entries}) == len(entries)
        used: dict = {}
        for uv in entries:
            for i, p in uv.items():
                used.setdefault((i, p.y), set()).add(p.x)
        assert all(len(cols) <= 1 for cols in used.values())

    @settings(max_examples=200, derandomize=True)
    @given(case=selector_tables())
    def test_width_2_products_within_the_slice_union_bound(self, case):
        # A product of K width-2 factors is the union of the 2^K products
        # of their width-1 slices, so its image is at most 2^K times as
        # wide as the width-1 worst case: the width-2 check follows.
        q_table, m = case
        assert max((width(product_image(q_table, product))
                    for product in maximal_products(q_table, 2)),
                   default=0) <= (2 ** len(q_table.arity)
                                  * verify_Q_in_CI(q_table, m).observed)


def walk(node, u, env):
    """The reference evaluator: a naive tree walk that evaluates every node
    at every visit and stops at the first undefined child."""
    if isinstance(node, Proj):
        return u[node.k]
    fn = env[node.name].fn
    order = sorted(fn.arity)
    assert len(node.children) == len(order)
    vals = []
    for ch in node.children:
        v = walk(ch, u, env)
        if v is None:
            return None
        vals.append(v)
    return fn.graph.get(MTuple(tuple(zip(order, vals))))


@st.composite
def shared_terms(draw):
    """A term over {1} or {1, 2} built bottom-up from a pool that starts
    with the projections: each new App takes its children from the pool,
    so subterms are shared, and its atom is a small partial function on
    the 3 x 3 grid, so some children are undefined.  Atom arities are
    drawn up to 9, where a frozenset's order can differ from the sorted
    order the children follow.  The root is one of the last Apps built."""
    arity = draw(st.sampled_from([idx(1), idx(1, 2)]))
    atom_arities = draw(st.lists(
        st.sets(st.integers(1, 9), min_size=1, max_size=2).map(frozenset),
        min_size=1, max_size=3))
    env = {f"a{i}": AtomBinding(draw(partial_fns(a)), CI_ATOM)
           for i, a in enumerate(atom_arities)}
    pool = [Proj(k) for k in sorted(arity)]
    for _ in range(draw(st.integers(1, 8))):
        name = draw(st.sampled_from(sorted(env)))
        children = draw(st.lists(st.sampled_from(pool),
                                 min_size=len(env[name].fn.arity),
                                 max_size=len(env[name].fn.arity)))
        pool.append(App(name, tuple(children)))
    return Term(draw(st.sampled_from(pool[len(arity):][-3:])), env, arity)


class TestCompiledEvaluation:
    @settings(max_examples=200, derandomize=True)
    @given(t=shared_terms())
    def test_matches_the_tree_walk(self, t):
        evaluate = compile_term(t)
        # the 3 x 3 grid the atoms live on, plus a point off it
        grid = [Point(x, y) for x in range(3) for y in range(3)]
        grid.append(Point(3, 3))
        us = [MTuple.of(dict(zip(sorted(t.arity), ps)))
              for ps in itertools.product(grid, repeat=len(t.arity))]
        # the whole grid in one call, then a shuffled copy with duplicates
        mixed = us + us[::3]
        random.Random(len(mixed)).shuffle(mixed)
        for batch in (us, mixed):
            assert evaluate(batch) == [walk(t.root, u, t.env) for u in batch]


@st.composite
def documents(draw):
    """A term holding two atoms, one applied and one unused, over index
    sets that reach past 9, where JSON's key order ("10" before "2") is not
    the numeric one.  Small coordinates make points and tuples repeat.
    Atom names may be NULs, the string ``serialize.dumps`` first splices
    at."""
    wide = st.sets(st.sampled_from([1, 2, 3, 9, 10, 11, 12]),
                   max_size=4).map(frozenset)
    arity = draw(wide)
    p, t = draw(st.lists(st.text("p\0", min_size=1, max_size=2),
                         min_size=2, max_size=2, unique=True))
    env = {p: AtomBinding(draw(partial_fns(arity)), CI_ATOM),
           t: AtomBinding(draw(partial_fns(draw(wide))), CI_ATOM)}
    return Term(App(p, tuple(Proj(k) for k in sorted(arity))), env, arity)


@st.composite
def any_arity_fns(draw):
    """A point-valued function over up to three of the indices 1, 2, 9,
    10, 12 and 123: nullary graphs, empty graphs and index sets past 9,
    where JSON's key order ("10" before "2") is not the numeric one, all
    occur.  Coordinates have one to four digits; small ones make points and
    tuples repeat."""
    order = sorted(draw(st.sets(st.sampled_from([1, 2, 9, 10, 12, 123]),
                                max_size=3)))
    coordinate = st.one_of(st.integers(0, 3), st.integers(0, 9999))
    point = st.builds(Point, coordinate, coordinate)
    entries = draw(st.lists(st.tuples(st.tuples(*[point] * len(order)),
                                      point), max_size=30))
    return PartialFn(frozenset(order),
                     {MTuple(tuple(zip(order, us))): v for us, v in entries})


@functools.cache
def _generated_documents() -> tuple:
    """(kind, bytes) of two small generated instances and their terms."""
    docs = []
    for inst in (generate_instance(1, 6, 3, 0),
                 generate_instance(2, 8, 4, 5, "mary-witness")):
        term = end_to_end_synthesize(inst.g, inst.f, inst.theta, inst.horizon,
                                     unary_candidates=inst.candidates).term
        docs += [("instance", serialize.instance_dumps(inst)),
                 ("term", serialize.term_dumps(term))]
    return tuple(docs)


def _containers(doc) -> list:
    """Every object and array of a JSON document, doc first."""
    found, stack = [], [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, (dict, list)):
            found.append(node)
            stack.extend(node.values() if isinstance(node, dict) else node)
    return found


EDIT_VALUES = [0, 1, 2, -1, 10**6, 1.0, True, None, "x", "proj", "app", "ci",
               [], {}, [0, 0], [2, 1]]


@st.composite
def mutated_documents(draw):
    """A generated instance or term document after one to three edits, each
    at an object or array of it: a key or element set (to a small JSON
    value or a copy of another part of the document), dropped or added, an
    array reversed, or an object's keys put in reverse order.  The document
    is written in its own key order, so that last edit reaches the
    reader."""
    kind, data = draw(st.sampled_from(_generated_documents()))
    doc = json.loads(data)
    for _ in range(draw(st.integers(1, 3))):
        sites = _containers(doc)
        site = draw(st.sampled_from(sites))
        value = draw(st.one_of(st.sampled_from(EDIT_VALUES),
                               st.sampled_from(sites).map(copy.deepcopy)))
        action = draw(st.sampled_from(["set", "drop", "reverse", "reorder"]))
        if isinstance(site, dict):
            key = draw(st.sampled_from([*site, "zz"]))
            if action == "reorder":
                items = [*site.items()]
                site.clear()
                site.update(reversed(items))
            elif action == "drop" and key in site:
                del site[key]
            else:
                site[key] = value
        elif action in ("reverse", "reorder") or not site:
            site.reverse()
        elif action == "drop":
            del site[draw(st.integers(0, len(site) - 1))]
        else:
            site.insert(draw(st.integers(0, len(site))), value)
    return kind, json.dumps(doc, separators=(",", ":")).encode() + b"\n"


PYTHON_MESSAGES = ("object is not iterable", "has no attribute",
                   "unhashable type", "is not subscriptable")


def _graphs_sorted(doc):
    """doc with each graph's entries in one order: the writer sorts them,
    so a document that lists them in another order reads as the same."""
    if isinstance(doc, list):
        return [_graphs_sorted(v) for v in doc]
    if not isinstance(doc, dict):
        return doc
    out = {k: _graphs_sorted(v) for k, v in doc.items()}
    if doc.keys() == {"arity", "codomain", "graph"}:
        out["graph"] = sorted(out["graph"],
                              key=lambda e: json.dumps(e, sort_keys=True))
    return out


class TestCanonicalBytes:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(case=mutated_documents())
    def test_a_document_that_loads_is_one_the_writer_writes(self, case):
        # Whatever loads redumps to itself, up to the order of graph
        # entries; everything else is a ParseError, never another error,
        # whose message is one short line however large the document and
        # in the reader's own words, not Python's.
        kind, data = case
        load, dump = {
            "instance": (serialize.instance_loads, serialize.instance_dumps),
            "term": (serialize.term_loads, serialize.term_dumps)}[kind]
        try:
            value = load(data)
        except serialize.ParseError as exc:
            assert len(str(exc)) < 200 and "\n" not in str(exc)
            assert not any(python in str(exc) for python in PYTHON_MESSAGES)
            return
        assert (_graphs_sorted(json.loads(dump(value)))
                == _graphs_sorted(json.loads(data)))

    @settings(max_examples=200, derandomize=True)
    @given(fn=any_arity_fns())
    def test_graphs_of_every_arity_match_the_json_reference(self, fn):
        # Every graph is written by one path and read by one column pass,
        # whatever its arity; the text must be json.dumps's of the sorted
        # entries, and the graph read back the same, in the same order,
        # with one object per distinct point and tuple.
        order = sorted(fn.arity)
        t = Term(App("a", tuple(map(Proj, order))),
                 {"a": AtomBinding(fn, CI_ATOM)}, fn.arity)
        data = serialize.term_dumps(t)
        entries = [[{str(i): [*u[i]] for i in order}, [*v]]
                   for u, v in sorted(fn.graph.items())]
        reference = {
            "version": 1, "kind": "term", "arity": order,
            "root": {"t": "app", "name": "a",
                     "children": [{"t": "proj", "k": i} for i in order]},
            "env": {"a": {"kind": CI_ATOM, "fn": {
                "arity": order, "codomain": None, "graph": entries}}}}
        assert data == (json.dumps(reference, sort_keys=True,
                                   separators=(",", ":")) + "\n").encode()
        back = serialize.term_loads(data).env["a"].fn
        assert back.arity == fn.arity
        assert list(back.graph.items()) == sorted(fn.graph.items())
        seen: dict = {}
        for u, v in back.graph.items():
            assert type(u) is MTuple and type(v) is Point
            for value in (u, v, *u.points()):
                assert type(value) in (MTuple, Point)
                assert seen.setdefault(value, value) is value

    @settings(max_examples=100, derandomize=True)
    @given(t=documents())
    def test_spliced_graphs_are_the_json_canonical_form(self, t):
        data = serialize.term_dumps(t)
        assert serialize.dumps(json.loads(data)) == data

    @settings(max_examples=100, derandomize=True)
    @given(t=documents())
    def test_bytes_round_trip(self, t):
        data = serialize.term_dumps(t)
        back = serialize.term_loads(data)
        assert back.env == t.env
        assert serialize.term_dumps(back) == data

    @settings(max_examples=100, derandomize=True)
    @given(t=documents())
    # instance documents too: under mary-witness the unary candidates
    # ident and const share their domain tuples
    @example(t=generate_instance(3, 8, 4, 5, "mary-witness"))
    @example(t=generate_instance(2, 16, 8, 1, "mary-witness"))
    def test_equal_values_of_one_document_are_one_object(self, t):
        if isinstance(t, Instance):
            back = serialize.instance_loads(serialize.instance_dumps(t))
            fns = [back.g, back.f, *back.candidates]
            ident, const = back.candidates
            assert ident.graph.keys() & const.graph.keys()
        else:
            back = serialize.term_loads(serialize.term_dumps(t))
            fns = [b.fn for b in back.env.values()]
        seen: dict = {}
        for fn in fns:
            for u, v in fn.graph.items():
                for value in (u, v, *u.points()):
                    assert seen.setdefault(value, value) is value
