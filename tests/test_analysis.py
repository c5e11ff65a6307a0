import pytest

from clonecover.analysis import (
    NotThriftyError,
    all_subsets,
    fiber_bounds,
    fiber_columns,
    tuple_set_width,
    width,
)
from clonecover.core import IndexMismatchError, MTuple, PartialFn

import oracle
from conftest import bound_of, idx, k_table_of, pt, tup, unary


class TestWidth:
    def test_empty_set(self):
        assert width(()) == 0

    def test_single_point(self):
        assert width([pt(7, 3)]) == 1

    def test_frozen_example(self):
        # Derived by hand: line 0 holds (0|0) and (1|0), line 2 holds (5|2).
        assert width([pt(0, 0), pt(1, 0), pt(5, 2)]) == 2

    def test_duplicates_do_not_inflate(self):
        assert width([pt(0, 0), pt(0, 0), pt(0, 0)]) == 1

    def test_plain_pairs_count_as_points(self):
        # A list, a tuple and a Point on one spot count once, from a list
        # or a generator alike.
        mixed = [[0, 0], (1, 0), pt(1, 0)]
        assert width(mixed) == 2
        assert width(p for p in mixed) == 2

    def test_tuple_set_width_frozen_example(self):
        # Component 1 has width 2 on line 0; component 2 has width 1.
        a = {tup((0, 0), (0, 5)), tup((1, 0), (0, 6))}
        assert tuple_set_width(a) == 2

    def test_tuple_set_width_empty(self):
        assert tuple_set_width([]) == 0


class TestLeastBound:
    """The least bound of a tuple set, read through `fiber_bounds`."""

    def test_empty_set(self):
        assert bound_of([]) == 0

    def test_zero_ary_tuples(self):
        assert bound_of([MTuple.empty()]) == 0

    def test_frozen_single_tuple(self):
        # min component y of ((5|1),(7|9)) is 1, so the least bound is 2.
        assert bound_of([tup((5, 1), (7, 9))]) == 2

    def test_frozen_origin_tuple(self):
        assert bound_of([tup((0, 0), (9, 9))]) == 1

    def test_max_over_tuples(self):
        a = [tup((0, 0), (9, 9)), tup((5, 1), (7, 9)), tup((1, 4), (2, 3))]
        assert bound_of(a) == 4

    def test_certificate_is_least(self):
        a = [tup((5, 1), (7, 9))]
        k = bound_of(a)
        # Every tuple has a component below k, and some tuple has none below
        # k - 1; that is exactly what "least bound" means.
        assert all(u.min_y() < k for u in a)
        assert any(u.min_y() >= k - 1 for u in a)


class TestClassifyPreimages:
    """Per-value bounds at S = {} from `fiber_bounds`, and the oracle's
    thrifty/wasteful split at theta."""

    def test_frozen_wasteful_example(self):
        # The sole preimage tuple has min y = 5, bound 6 > theta = 3.
        p = unary({(0, 5): (1, 1)})
        assert fiber_bounds(p, frozenset()) == {
            MTuple.empty(): {pt(1, 1): 6}}
        assert oracle.split(p, 3) == (frozenset(), frozenset({tup((0, 5))}))

    def test_thrifty_at_exact_threshold(self):
        p = unary({(0, 2): (1, 1)})
        assert fiber_bounds(p, frozenset()) == {
            MTuple.empty(): {pt(1, 1): 3}}
        assert oracle.split(p, 3) == (p.domain(), frozenset())

    def test_domains_partition(self):
        p = unary({(0, 5): (1, 1), (0, 0): (2, 2), (4, 9): (1, 1)})
        assert fiber_bounds(p, frozenset()) == {
            MTuple.empty(): {pt(1, 1): 10, pt(2, 2): 1}}
        thrifty, wasteful = oracle.split(p, 3)
        assert thrifty == frozenset({tup((0, 0))})
        assert thrifty | wasteful == p.domain()
        assert not (thrifty & wasteful)

    def test_bound_taken_over_whole_preimage(self):
        # One low tuple does not rescue the value: the bound is a max.
        p = unary({(0, 0): (1, 1), (0, 9): (1, 1)})
        assert fiber_bounds(p, frozenset()) == {
            MTuple.empty(): {pt(1, 1): 10}}
        assert oracle.split(p, 3) == (frozenset(), p.domain())

    def test_invalid_theta(self):
        # theta is checked before any bound is read, even with no values
        with pytest.raises(ValueError):
            k_table_of(unary({}), 0)


class TestKTable:
    def test_frozen_example(self):
        # Preimage of line 7 is {(0|0), (0|2)}; bound 1 + max(0, 2) = 3.
        t = unary({(0, 0): (5, 7), (0, 2): (6, 7)})
        assert k_table_of(t, theta=4) == {7: 3}

    def test_one_entry_per_occurring_line(self):
        t = unary({(0, 0): (5, 7), (0, 1): (6, 8)})
        assert set(k_table_of(t, theta=4)) == {7, 8}

    def test_wasteful_input_rejected(self):
        t = unary({(0, 9): (5, 7)})
        with pytest.raises(NotThriftyError):
            k_table_of(t, theta=3)

    def test_line_bound_may_exceed_theta(self):
        # Two values on the same line, each thrifty, can push the line bound
        # past theta; the table must still report the exact value.
        t = unary({(0, 3): (5, 7), (1, 3): (6, 7)})
        assert k_table_of(t, theta=4) == {7: 4}


class TestHereditarilyThrifty:
    """Bounds from `fiber_bounds` at the failing S, and the oracle's first
    wasteful (S, c, value) over every S and c."""

    def test_frozen_counterexample(self):
        # The tuple ((x|0),(x|5)) is plain-thrifty (min y = 0) but its fiber
        # over S = {1} is the map (x|5) -> value, bound 6 > theta = 2.
        q = PartialFn(idx(1, 2), {tup((3, 0), (3, 5)): pt(1, 1)})
        c = MTuple.of({1: pt(3, 0)})
        assert fiber_bounds(q, frozenset()) == {
            MTuple.empty(): {pt(1, 1): 1}}
        assert fiber_bounds(q, idx(1)) == {c: {pt(1, 1): 6}}
        assert oracle.first_wasteful(q, 2) == (idx(1), c, pt(1, 1))

    def test_all_low_is_hereditarily_thrifty(self):
        q = PartialFn(idx(1, 2), {
            tup((i, 0), (i, 1)): pt(i, 0) for i in range(4)
        })
        assert all(k <= 2 for s in all_subsets([1, 2])
                   for bounds in fiber_bounds(q, s).values()
                   for k in bounds.values())
        assert oracle.first_wasteful(q, 2) is None

    def test_empty_subset_clause_is_plain_thriftiness(self):
        q = unary({(0, 5): (1, 1)})
        assert fiber_bounds(q, frozenset()) == {
            MTuple.empty(): {pt(1, 1): 6}}
        assert oracle.first_wasteful(q, 3) == (
            frozenset(), MTuple.empty(), pt(1, 1))
        assert oracle.split(q, 3)[1] == q.domain()

    def test_covers_every_subset(self):
        # Thrifty at S = {} and at S = {1}; at S = {2} the fiber with key
        # (0|0) maps (0|5) alone to (9|9), a preimage bound of 6 > theta 3.
        q = PartialFn(idx(1, 2), {tup((0, 5), (0, 0)): pt(9, 9)})
        c = MTuple.of({2: pt(0, 0)})
        assert oracle.split(q, 3)[1] == frozenset()
        assert fiber_bounds(q, idx(1)) == {
            MTuple.of({1: pt(0, 5)}): {pt(9, 9): 1}}
        assert fiber_bounds(q, idx(2)) == {c: {pt(9, 9): 6}}
        assert oracle.first_wasteful(q, 3) == (idx(2), c, pt(9, 9))


class TestFiberColumns:
    """`fiber_columns` and the `fiber_bounds` read off them, at the edges:
    an empty g, S = {}, S = the arity, and indices whose positional order
    (2 before 10) is not their JSON key order ("10" before "2")."""

    def test_empty_graph_at_every_subset(self):
        g = PartialFn(idx(1, 2, 3), {})
        for s in all_subsets([1, 2, 3]):
            assert fiber_columns(g, s) == (
                [], {j: () for j in sorted(idx(1, 2, 3) - s)})
            assert fiber_bounds(g, s) == {}

    def test_empty_subset_gives_the_empty_key(self):
        u, w = tup((0, 4), (1, 2)), tup((3, 0), (5, 6))
        g = PartialFn(idx(1, 2), {u: pt(1, 1), w: pt(2, 2)})
        keys, outside = fiber_columns(g, frozenset())
        assert keys == [MTuple.empty(), MTuple.empty()]
        assert outside == {1: ((1, pt(0, 4)), (1, pt(3, 0))),
                           2: ((2, pt(1, 2)), (2, pt(5, 6)))}
        assert fiber_bounds(g, frozenset()) == {
            MTuple.empty(): {pt(1, 1): 3, pt(2, 2): 1}}

    def test_whole_arity_gives_the_tuples_and_bound_zero(self):
        u, w = tup((0, 4), (1, 2)), tup((3, 0), (5, 6))
        g = PartialFn(idx(1, 2), {u: pt(1, 1), w: pt(1, 1)})
        assert fiber_columns(g, idx(1, 2)) == ([u, w], {})
        assert fiber_bounds(g, idx(1, 2)) == {u: {pt(1, 1): 0},
                                              w: {pt(1, 1): 0}}
        assert fiber_bounds(unary({(0, 9): (1, 1)}), idx(1)) == {
            MTuple.of({1: pt(0, 9)}): {pt(1, 1): 0}}

    def test_positional_order_is_index_order(self):
        # graph order w, u; fiber keys in canonical order, values in order
        # of first occurrence
        u = MTuple.of({2: pt(0, 7), 10: pt(1, 3)})
        w = MTuple.of({10: pt(4, 5), 2: pt(0, 1)})
        g = PartialFn(idx(2, 10), {w: pt(9, 9), u: pt(8, 8)})
        keys, outside = fiber_columns(g, idx(10))
        assert keys == [MTuple.of({10: pt(4, 5)}), MTuple.of({10: pt(1, 3)})]
        assert outside == {2: ((2, pt(0, 1)), (2, pt(0, 7)))}
        assert fiber_bounds(g, idx(10)) == {
            MTuple.of({10: pt(1, 3)}): {pt(8, 8): 8},
            MTuple.of({10: pt(4, 5)}): {pt(9, 9): 2}}
        assert fiber_bounds(g, idx(2)) == {
            MTuple.of({2: pt(0, 1)}): {pt(9, 9): 6},
            MTuple.of({2: pt(0, 7)}): {pt(8, 8): 4}}
        g = PartialFn(idx(2, 10), {w: pt(9, 9), u: pt(8, 8),
                                   MTuple.of({2: pt(5, 0), 10: pt(4, 5)}):
                                   pt(9, 9)})
        assert fiber_bounds(g, frozenset()) == {
            MTuple.empty(): {pt(9, 9): 2, pt(8, 8): 4}}
        for s in all_subsets([2, 10]):
            assert fiber_bounds(g, s) == oracle.fiber_bounds(g, s)

    def test_subset_outside_the_arity_rejected(self):
        g = PartialFn(idx(1, 2), {tup((0, 0), (0, 0)): pt(0, 0)})
        with pytest.raises(IndexMismatchError, match=r"S=\[3\]"):
            fiber_columns(g, idx(3))


class TestAllSubsets:
    def test_order_by_size_then_lex(self):
        subs = all_subsets([1, 2, 3])
        as_lists = [sorted(s) for s in subs]
        assert as_lists == [[], [1], [2], [3], [1, 2], [1, 3], [2, 3],
                            [1, 2, 3]]

    def test_count(self):
        assert len(all_subsets([1, 2, 3])) == 8

