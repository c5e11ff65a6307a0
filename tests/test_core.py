import pytest

from clonecover.analysis import tuple_bounds
from clonecover.core import (
    App,
    AtomBinding,
    CI_ATOM,
    IndexMismatchError,
    MTuple,
    OverlapError,
    PartialFn,
    Proj,
    Term,
    UnresolvedAtomError,
    compile_term,
    compose,
    full_index,
)

from conftest import idx, pt, tup, unary
from oracle import (
    disjoint_union,
    fiber,
    hash_fn,
    shrink_inner,
    star_fn,
    star_set,
)


class TestCheckedConstructor:
    @pytest.mark.parametrize("entry", [None, "x", (1, 1), 5])
    def test_non_point_tuple_entries_rejected(self, entry):
        bad = MTuple(((1, entry),))
        with pytest.raises(IndexMismatchError, match="holds a non-point"):
            PartialFn(idx(1), {bad: pt(1, 1)})
        with pytest.raises(IndexMismatchError, match="expected point value"):
            PartialFn(idx(1), {tup((0, 0)): bad})


class TestCompose:
    def test_single_link_chain(self):
        u, v, w = tup((1, 1)), tup((2, 2)), pt(3, 3)
        outer = PartialFn(full_index(1), {v: w})
        assert compose(outer, {u: v}) == PartialFn(full_index(1), {u: w})

    def test_domain_restriction(self):
        u, v = tup((1, 1)), tup((9, 9))
        outer = PartialFn(full_index(1), {tup((2, 2)): pt(0, 0)})
        assert len(compose(outer, {u: v})) == 0

    def test_identity_case(self):
        p = unary({(0, 1): (2, 3), (4, 5): (6, 7)})
        assert compose(p, {u: u for u in p.graph}) == p


class TestDisjointUnion:
    def test_two_entries(self):
        a = unary({(0, 0): (1, 1)})
        b = unary({(2, 2): (3, 3)})
        assert len(disjoint_union([a, b])) == 2

    def test_collision_is_an_error(self):
        a = unary({(0, 0): (1, 1)})
        with pytest.raises(OverlapError, match=r"\(0\|0\)"):
            disjoint_union([a, a])

    def test_empty_part_is_identity(self):
        p = unary({(0, 0): (1, 1)})
        empty = PartialFn(p.arity, {})
        assert disjoint_union([empty, p]) == p


class TestShrinkInner:
    def test_already_exact(self):
        u, v, w = tup((1, 1)), tup((2, 2)), pt(3, 3)
        h_prime = {u: v}
        g_prime = PartialFn(full_index(1), {v: w})
        g = compose(g_prime, h_prime)
        assert shrink_inner(g, g_prime, h_prime) == h_prime

    def test_strictly_smaller_domain(self):
        u1, u2, v, w = tup((1, 1)), tup((4, 4)), tup((2, 2)), pt(3, 3)
        h_prime = {u1: v, u2: v}
        g_prime = PartialFn(full_index(1), {v: w})
        g = PartialFn(full_index(1), {u1: w})
        h = shrink_inner(g, g_prime, h_prime)
        assert len(h) == len(g) == 1
        assert compose(g_prime, h) == g

    def test_contract_violation(self):
        u, v = tup((1, 1)), tup((2, 2))
        h_prime = {u: v}
        g_prime = PartialFn(full_index(1), {v: pt(3, 3)})
        g = PartialFn(full_index(1), {u: pt(9, 9)})
        with pytest.raises(ValueError, match="not contained"):
            shrink_inner(g, g_prime, h_prime)


class TestStarOperators:
    def test_star_set_with_empty_prefix(self):
        a = {tup((1, 2)), tup((3, 4))}
        assert star_set(MTuple.empty(), a) == frozenset(a)

    def test_star_set_is_bijective(self):
        c = MTuple.of({1: pt(0, 0)})
        a = {MTuple.of({2: pt(i, i)}) for i in range(5)}
        assert len(star_set(c, a)) == 5

    def test_star_set_definition(self):
        c = MTuple.of({1: pt(0, 0)})
        z = MTuple.of({2: pt(3, 4)})
        assert star_set(c, {z}) == {MTuple.of({1: pt(0, 0), 2: pt(3, 4)})}

    def test_star_fn_with_empty_prefix(self):
        g = unary({(1, 1): (2, 2)})
        assert star_fn(MTuple.empty(), g) == g

    def test_star_fn_defining_identity(self):
        c = MTuple.of({1: pt(0, 5)})
        g = PartialFn(idx(2), {MTuple.of({2: pt(3, 4)}): pt(7, 8)})
        starred = star_fn(c, g)
        for z, v in g.graph.items():
            assert starred.graph[c.union(z)] == v

    def test_star_then_fiber_recovers(self):
        c = MTuple.of({1: pt(0, 5)})
        g = PartialFn(idx(2), {MTuple.of({2: pt(i, i)}): pt(i, 0)
                               for i in range(4)})
        assert fiber(star_fn(c, g), idx(1), c) == g

    def test_overlapping_index_sets_rejected(self):
        c = MTuple.of({1: pt(0, 0)})
        g = PartialFn(idx(1), {MTuple.of({1: pt(1, 1)}): pt(2, 2)})
        with pytest.raises(OverlapError):
            star_fn(c, g)


class TestHashFn:
    def test_identity_maps_to_identity(self):
        c = MTuple.of({1: pt(0, 5)})
        a = {MTuple.of({2: pt(i, i)}) for i in range(3)}
        hashed = hash_fn(c, {u: u for u in a})
        assert hashed == {u: u for u in star_set(c, a)}

    def test_fixed_block_preserved(self):
        c = MTuple.of({1: pt(9, 9)})
        z1, z2 = MTuple.of({2: pt(0, 0)}), MTuple.of({2: pt(1, 1)})
        hashed = hash_fn(c, {z1: z2})
        for u, v in hashed.items():
            assert u.restrict(idx(1)) == c and v.restrict(idx(1)) == c

    def test_star_of_composition(self):
        # c*(f o g) = (c*f) o (c#g)
        c = MTuple.of({1: pt(2, 3)})
        z1, z2 = MTuple.of({2: pt(0, 0)}), MTuple.of({2: pt(1, 1)})
        g = {z1: z2}
        f = PartialFn(idx(2), {z2: pt(5, 5)})
        assert star_fn(c, compose(f, g)) == compose(star_fn(c, f), hash_fn(c, g))


class TestFiber:
    def test_empty_subset_gives_g_itself(self):
        g = unary({(1, 1): (2, 2)})
        assert fiber(g, frozenset(), MTuple.empty()) == g

    def test_unmatched_prefix_gives_empty(self):
        g = PartialFn(idx(1, 2), {tup((0, 0), (1, 1)): pt(2, 2)})
        c = MTuple.of({1: pt(9, 9)})
        assert len(fiber(g, idx(1), c)) == 0

    def test_reconstruction(self):
        g = PartialFn(idx(1, 2), {
            tup((0, 0), (1, 1)): pt(2, 2),
            tup((0, 0), (3, 3)): pt(4, 4),
            tup((5, 5), (1, 1)): pt(6, 6),
        })
        parts = [
            star_fn(c, fiber(g, idx(1), c))
            for c in {u.restrict(idx(1)) for u in g.domain()}
        ]
        assert disjoint_union(parts) == g

    def test_subset_check(self):
        # the decomposition and the K-tables read fibers through tuple_bounds
        g = unary({(1, 1): (2, 2)})
        with pytest.raises(IndexMismatchError, match=r"S=\[7\]"):
            tuple_bounds(g, idx(7))


class TestTerms:
    def test_projection_law(self):
        t = Term(Proj(1), {}, idx(1, 2))
        assert compile_term(t)([tup((3, 4), (5, 6)),
                                tup((1, 2), (3, 4))]) == [pt(3, 4), pt(1, 2)]

    def test_atom_evaluation(self):
        p = unary({(0, 0): (7, 7)})
        t = Term(App("p", (Proj(1),)), {"p": AtomBinding(p, CI_ATOM)}, idx(1))
        assert compile_term(t)([tup((0, 0)), tup((1, 1))]) == [pt(7, 7), None]

    def test_empty_list(self):
        p = unary({(0, 0): (7, 7)})
        t = Term(App("p", (Proj(1),)), {"p": AtomBinding(p, CI_ATOM)}, idx(1))
        assert compile_term(t)([]) == []

    def test_undefined_inner_atom_is_none_exactly_there(self):
        # inner is undefined at (1|1) only; outer is applied to inner's
        # value and to the argument itself, a two-child row with a None.
        inner = unary({(0, 0): (2, 2), (3, 3): (3, 3)})
        outer = PartialFn(idx(1, 2), {tup((2, 2), (0, 0)): pt(5, 5),
                                      tup((3, 3), (3, 3)): pt(6, 6)})
        t = Term(App("outer", (App("inner", (Proj(1),)), Proj(1))),
                 {"inner": AtomBinding(inner, CI_ATOM),
                  "outer": AtomBinding(outer, CI_ATOM)}, idx(1))
        us = [tup((1, 1)), tup((0, 0)), tup((1, 1)), tup((3, 3))]
        assert compile_term(t)(us) == [None, pt(5, 5), None, pt(6, 6)]

    def test_compose_agrees_with_partial_composition(self, rng):
        from conftest import random_point_fn, random_tuple_map, random_tuple
        for _ in range(50):
            inner = random_tuple_map(rng, idx(1))
            outer = random_point_fn(rng, idx(1))
            composed = compose(outer, inner)
            component = PartialFn(idx(1), {u: v[1] for u, v in inner.items()})
            t = Term(
                App("outer", (App("inner", (Proj(1),)),)),
                {"outer": AtomBinding(outer, CI_ATOM),
                 "inner": AtomBinding(component, CI_ATOM)},
                idx(1),
            )
            us = sorted(inner.keys() | {random_tuple(rng, idx(1))})
            assert compile_term(t)(us) == [composed.graph.get(u) for u in us]

    def test_unresolved_atom(self):
        t = Term(App("ghost", (Proj(1),)), {}, idx(1))
        with pytest.raises(UnresolvedAtomError,
                           match="unbound atom 'ghost'"):
            compile_term(t)

    def test_unresolved_atom_behind_an_undefined_sibling(self):
        # p is undefined at every tuple, so a walk that stops at the first
        # undefined child never meets ghost; compilation checks every atom.
        t = Term(App("q", (App("p", (Proj(1),)), App("ghost", (Proj(1),)))),
                 {"p": AtomBinding(unary({}), CI_ATOM),
                  "q": AtomBinding(PartialFn(idx(1, 2), {}), CI_ATOM)},
                 idx(1))
        with pytest.raises(UnresolvedAtomError):
            compile_term(t)

    def test_wrong_child_count(self):
        p = unary({(0, 0): (7, 7)})
        t = Term(App("p", (Proj(1), Proj(1))), {"p": AtomBinding(p, CI_ATOM)},
                 idx(1))
        with pytest.raises(IndexMismatchError,
                           match="atom 'p' has arity 1, applied to 2 children"):
            compile_term(t)

    def test_projection_outside_arity(self):
        # evaluation used to raise a bare KeyError(3) on every tuple
        t = Term(Proj(3), {}, full_index(2))
        with pytest.raises(IndexMismatchError,
                           match=r"projection 3 outside arity \[1, 2\]"):
            compile_term(t)

    def test_nullary_atom_gives_one_value_per_tuple(self):
        c = PartialFn(frozenset(), {MTuple.empty(): pt(4, 4)})
        p = PartialFn(idx(1, 2), {tup((0, 0), (4, 4)): pt(7, 7)})
        t = Term(App("p", (Proj(1), App("c", ()))),
                 {"c": AtomBinding(c, CI_ATOM), "p": AtomBinding(p, CI_ATOM)},
                 idx(1))
        assert compile_term(t)([tup((0, 0)), tup((1, 1))]) == [pt(7, 7), None]

    def test_tuple_over_other_indices(self):
        p = unary({(0, 0): (7, 7)})
        t = Term(App("p", (Proj(1),)), {"p": AtomBinding(p, CI_ATOM)}, idx(1))
        evaluate = compile_term(t)
        assert evaluate([tup((0, 0))]) == [pt(7, 7)]
        for u in (tup((0, 0), (1, 1)), MTuple.of({2: pt(0, 0)})):
            with pytest.raises(IndexMismatchError):
                evaluate([u])

    def test_one_off_arity_tuple_fails_before_any_lookup(self):
        lookups = []

        class CountingGraph(dict):
            def get(self, key, default=None):
                lookups.append(key)
                return super().get(key, default)

        p = unary({(0, 0): (7, 7)})
        p.graph = CountingGraph(p.graph)
        t = Term(App("p", (Proj(1),)), {"p": AtomBinding(p, CI_ATOM)}, idx(1))
        with pytest.raises(IndexMismatchError,
                           match=r"tuple over \[1, 2\] fed to term of arity "
                                 r"\[1\]"):
            compile_term(t)([tup((0, 0)), tup((0, 0), (1, 1)), tup((1, 1))])
        assert lookups == []

    def test_term_statistics(self):
        p = unary({(0, 0): (7, 7)})
        t = Term(App("p", (Proj(1),)), {"p": AtomBinding(p, CI_ATOM)}, idx(1))
        assert t.size() == 2 and t.depth() == 2

    def test_shared_nodes_are_walked_once(self):
        # 60 levels, each applying p to the level below twice: a tree of
        # 2^61 - 1 nodes over 61 node objects, which a walk of the tree
        # would never finish.
        p = PartialFn(idx(1, 2), {tup((0, 0), (0, 0)): pt(0, 0)})
        node = Proj(1)
        for _ in range(60):
            node = App("p", (node, node))
        t = Term(node, {"p": AtomBinding(p, CI_ATOM)}, idx(1))
        assert t.size() == 2 ** 61 - 1 and t.depth() == 61
        assert compile_term(t)([tup((0, 0)), tup((1, 0))]) == [pt(0, 0), None]


class TestMTuple:
    def test_union_disjoint(self):
        a = MTuple.of({1: pt(0, 0)})
        b = MTuple.of({2: pt(1, 1)})
        assert a.union(b).indices == idx(1, 2)

    def test_union_overlap_rejected(self):
        a = MTuple.of({1: pt(0, 0)})
        with pytest.raises(OverlapError):
            a.union(a)

    def test_restrict_and_without_partition(self):
        u = tup((0, 0), (1, 1), (2, 2))
        s = idx(1, 3)
        assert u.restrict(s).union(u.without(s)) == u

    def test_hash_equality_and_order_are_tuples_own(self):
        # No Python frame runs on a dict lookup or a sort comparison.
        for name in ("__hash__", "__eq__", "__ne__", "__lt__", "__le__",
                     "__gt__", "__ge__"):
            assert getattr(MTuple, name) is getattr(tuple, name)
        u = tup((0, 1), (2, 3))
        assert isinstance(u, tuple) and u == ((1, pt(0, 1)), (2, pt(2, 3)))
        assert hash(u) == hash(((1, pt(0, 1)), (2, pt(2, 3))))

    def test_subscript_reads_an_index(self):
        u = MTuple.of({2: pt(0, 1), 5: pt(2, 3)})
        assert (u[2], u[5]) == (pt(0, 1), pt(2, 3))
        assert 5 in u and 0 not in u
        for i in (0, 1, 3):
            with pytest.raises(KeyError):
                u[i]

    def test_of_orders_entries_by_index(self):
        # The mapping's own order does not matter: entries sort by index.
        u = MTuple.of({5: pt(2, 3), 2: pt(0, 1)})
        assert u == MTuple.of({2: pt(0, 1), 5: pt(2, 3)})
        assert tuple(u) == ((2, pt(0, 1)), (5, pt(2, 3)))
        assert u.indices == frozenset({2, 5})

    def test_empty_tuple(self):
        assert len(MTuple.empty()) == 0 and not MTuple.empty()
        assert MTuple.empty().indices == frozenset()
