import pytest

from clonecover.analysis import all_subsets, width
from clonecover.core import (
    IndexMismatchError,
    MTuple,
    PartialFn,
    compose,
    full_index,
)
from clonecover.decompose import (
    AdmissibilityError,
    StageRecord,
    countable_selection,
    hereditary_decompose,
    strong_decompose_stage,
    verify_decomposition,
)
from clonecover.instances import generate_instance
from clonecover.synth import fiber_k_tables

import oracle
from conftest import idx, inner_map, pt, stage_check, trace_over, tup, unary


def wasteful_unary(mapping):
    """A one-key selection input over the empty fiber key: each value of
    the {point: point} dict to its preimage."""
    preimages = {}
    for u, v in mapping.items():
        preimages.setdefault(pt(*v), []).append(tup(u))
    return {MTuple.empty(): preimages}


class TestCountableSelection:
    def test_picks_one_tuple_per_value(self):
        fam = wasteful_unary({
            (0, 0): (9, 9), (0, 1): (9, 9), (0, 2): (9, 9),
        })
        sel = countable_selection(fam, theta=3)
        assert len(set(sel.values())) == 1
        assert len(sel) == 1

    def test_prefers_largest_minimal_y(self):
        fam = wasteful_unary({(0, 0): (9, 9), (0, 2): (9, 9)})
        sel = countable_selection(fam, theta=3)
        (pick,) = sel.values()
        assert pick == tup((0, 2))

    def test_eligibility_respects_theta(self):
        # The y = 5 tuple has the larger minimal y but sits above theta.
        fam = wasteful_unary({(0, 1): (9, 9), (0, 5): (9, 9)})
        sel = countable_selection(fam, theta=3)
        (pick,) = sel.values()
        assert pick == tup((0, 1))

    def test_y_coordinates_stay_disjoint(self):
        fam = wasteful_unary({
            (0, 0): (8, 8), (0, 1): (8, 8),
            (1, 0): (9, 9), (1, 1): (9, 9),
        })
        sel = countable_selection(fam, theta=3)
        ys = [p.y for u in sel.values() for p in u.points()]
        assert len(ys) == len(set(ys))

    def test_width_of_a_is_at_most_one(self):
        fam = {
            MTuple.of({1: pt(0, 0)}): {
                pt(9, 9): [MTuple.of({2: pt(i, i)}) for i in range(3)],
            },
        }
        sel = countable_selection(fam, theta=4)
        assert width({u[2] for u in sel.values()}) <= 1

    def test_exhaustion_is_an_error(self):
        fam = wasteful_unary({(0, 5): (9, 9)})
        with pytest.raises(AdmissibilityError):
            countable_selection(fam, theta=3)

    def test_rerouting_covers_whole_wasteful_domain(self):
        # In fiber c the value (9|9) has preimage bound 6 > theta 3; the
        # stage routes that whole preimage into c ∪ A.
        c = MTuple.of({1: pt(5, 5)})
        g = PartialFn(idx(1, 2), {
            c.union(MTuple.of({2: pt(0, y)})): pt(9, 9) for y in (0, 1, 5)
        })
        stage = strong_decompose_stage(g, idx(1), theta=3)
        wasteful = {
            c.union(z) for z in oracle.split(oracle.fiber(g, idx(1), c), 3)[1]
        }
        assert wasteful == set(g.domain()) == stage.moved.keys()
        # each target is c ∪ pick, a pick moves onto itself, and the
        # picks' set A has width <= 1
        targets = set(stage.moved.values())
        assert {t.restrict(idx(1)) for t in targets} == {c}
        assert targets <= stage.moved.keys()
        assert width({t[2] for t in targets}) <= 1

    def test_picks_on_one_line_fail_the_inner_map_check(self):
        # Two wasteful fibers get y-disjoint picks, (0|1) and (0|0).
        # Rerouting the second fiber onto (1|1) puts two picks on line 1:
        # the inner-map check is the width check on A, and names it.
        c1, c2 = MTuple.of({1: pt(5, 5)}), MTuple.of({1: pt(6, 6)})
        g = PartialFn(idx(1, 2), {
            c.union(MTuple.of({2: pt(0, y)})): pt(9, 9)
            for c in (c1, c2) for y in (0, 1, 5)
        })
        stage = strong_decompose_stage(g, idx(1), theta=3)
        picks = {u.restrict(idx(1)): t[2] for u, t in stage.moved.items()}
        assert picks == {c1: pt(0, 1), c2: pt(0, 0)}
        assert stage_check(g, stage, 3, "inner-map certificates")["passed"]
        stage.moved = {u: (c2.union(MTuple.of({2: pt(1, 1)}))
                           if u.restrict(idx(1)) == c2 else t)
                       for u, t in stage.moved.items()}
        check = stage_check(g, stage, 3, "inner-map certificates")
        assert not check["passed"]
        assert check["detail"] == "component 2 has range width 2"


class TestStrongDecompose:
    def test_thrifty_input_is_untouched(self):
        g = unary({(0, 0): (9, 9), (1, 1): (8, 8)})
        stage = strong_decompose_stage(g, frozenset(), theta=2)
        assert stage.g_prime == g
        assert stage.moved == {}
        assert stage_check(g, stage, 2, "inner-map certificates")["passed"]

    def test_wasteful_value_is_rerouted(self):
        # Value (9|9) has preimage bound 4 > theta 2; one low representative
        # must carry it and the rest of the preimage routes through it.
        g = unary({(0, 0): (9, 9), (0, 3): (9, 9)})
        stage = strong_decompose_stage(g, frozenset(), theta=2)
        assert len(stage.g_prime) == 1
        assert set(stage.g_prime.domain()) == {tup((0, 0))}
        assert compose(stage.g_prime, inner_map(g, stage)) == g

    def test_empty_input(self):
        g = PartialFn(idx(1), {})
        stage = strong_decompose_stage(g, frozenset(), theta=2)
        assert len(stage.g_prime) == 0 and stage.moved == {}

    def test_fibers_become_thrifty(self):
        g = PartialFn(idx(1, 2), {
            tup((0, 0), (0, 0)): pt(9, 9),
            tup((0, 0), (1, 8)): pt(9, 9),
            tup((5, 5), (0, 1)): pt(7, 7),
        })
        stage = strong_decompose_stage(g, idx(1), theta=3)
        for p in oracle.fibers(stage.g_prime, idx(1)).values():
            assert not oracle.split(p, 3)[1]

    def test_s_outside_arity_rejected(self):
        g = unary({(0, 0): (1, 1)})
        with pytest.raises(ValueError):
            strong_decompose_stage(g, idx(7), theta=2)

    def test_tuple_valued_g_rejected_up_front(self):
        # a wasteful tuple value used to reach countable_selection, which
        # orders values by (y, x) and died with an AttributeError; a
        # partial function is point-valued, so no such g is built
        value = MTuple.of({1: pt(9, 9)})
        with pytest.raises(IndexMismatchError, match="expected point value"):
            PartialFn(idx(1), {tup((0, 0)): value, tup((0, 5)): value})

    def test_only_wasteful_tuples_move(self):
        # (9|9)'s preimage is wasteful at theta 2 and moves whole onto its
        # pick (0|0), whose own entry is recorded too; the thrifty (4|1) is
        # fixed, so it is not recorded.
        g = unary({(0, 0): (9, 9), (0, 3): (9, 9), (4, 1): (7, 7)})
        stage = strong_decompose_stage(g, frozenset(), theta=2)
        assert stage.moved == {tup((0, 0)): tup((0, 0)),
                               tup((0, 3)): tup((0, 0))}


class TestHereditaryDecompose:
    def test_trace_covers_all_subsets(self):
        g = PartialFn(idx(1, 2), {tup((0, 0), (1, 1)): pt(2, 2)})
        trace = hereditary_decompose(g, theta=3)
        assert [sorted(st.s) for st in trace.stages] == [
            [], [1], [2], [1, 2],
        ]

    def test_exact_recomposition(self):
        g = unary({(0, 0): (9, 9), (0, 4): (9, 9), (2, 1): (5, 5)})
        trace = hereditary_decompose(g, theta=3)
        assert compose(trace.g_prime, trace.h_composed) == g

    def test_final_core_hereditarily_thrifty(self):
        g = PartialFn(idx(1, 2), {
            tup((0, 0), (0, 9)): pt(8, 8),
            tup((0, 0), (1, 1)): pt(8, 8),
            tup((3, 2), (0, 0)): pt(6, 6),
        })
        trace = hereditary_decompose(g, theta=4)
        assert oracle.first_wasteful(trace.g_prime, 4) is None

    def test_verifier_accepts_honest_trace(self):
        g = unary({(0, 0): (9, 9), (0, 4): (9, 9)})
        trace = hereditary_decompose(g, theta=3)
        verdict = verify_decomposition(g, trace)
        assert verdict.passed
        assert all(c["passed"] for c in verdict.checks)

    def test_verifier_rejects_tampered_trace(self):
        g = unary({(0, 0): (9, 9), (0, 4): (9, 9)})
        trace = hereditary_decompose(g, theta=3)
        tampered = PartialFn(g.arity, dict(trace.g_prime.graph))
        tampered.graph[tup((7, 7))] = pt(0, 0)
        trace.g_prime = tampered
        assert not verify_decomposition(g, trace).passed

    @staticmethod
    def failing_checks(g, trace):
        return [c["name"] for c in verify_decomposition(g, trace).checks
                if not c["passed"]]

    @staticmethod
    def merge_onto_origin(g):
        """The inner map sending both tuples of g's one preimage to (0|0):
        g' o h stays exact, but (1|0) no longer maps to itself."""
        return {u: tup((0, 0)) for u in g.graph}

    @pytest.mark.parametrize("stage_index, moved, failure", [
        # at S = [1], (1|0)(0|0) moved onto (0|0)(0|0): the same value, but
        # the S-component changes
        (1, {tup((1, 0), (0, 0)): tup((0, 0), (0, 0))},
         "S-component not a projection"),
        # at S = [], both tuples moved onto themselves: exact, but the
        # targets' first components, (0|0) and (1|0), have width 2
        (0, {tup((0, 0), (0, 0)): tup((0, 0), (0, 0)),
             tup((1, 0), (0, 0)): tup((1, 0), (0, 0))},
         "component 1 has range width 2"),
    ])
    def test_verifier_rechecks_each_stage_inner_map(self, stage_index, moved,
                                                    failure):
        # Both tuples are thrifty at every S, so no stage moves them; a
        # tampered record stays exact, only its inner map is not
        # width-harmless.
        g = PartialFn(idx(1, 2), {tup((0, 0), (0, 0)): pt(9, 9),
                                  tup((1, 0), (0, 0)): pt(9, 9)})
        trace = hereditary_decompose(g, theta=3)
        assert all(stage.moved == {} for stage in trace.stages)
        stage = trace.stages[stage_index]
        stage.moved = moved
        trace.h_composed = inner_map(g, stage)
        assert compose(trace.g_prime, trace.h_composed) == g
        label = f"S={sorted(stage.s)}: inner-map certificates"
        assert self.failing_checks(g, trace) == [label]
        assert stage_check(g, stage, 3, "inner-map certificates")[
            "detail"] == failure

    def test_verifier_rejects_moves_from_outside_the_domain(self):
        # g' o h still agrees with g on dom(g), but h is recorded as moving
        # a tuple g never had
        g = unary({(0, 0): (9, 9)})
        trace = hereditary_decompose(g, theta=3)
        trace.stages[0].moved = {tup((5, 5)): tup((0, 0))}
        assert self.failing_checks(g, trace) == ["S=[]: exact recomposition"]

    def test_verifier_rechecks_fiber_thriftiness(self):
        # (9|9)'s preimage has bound 1 + 4 = 5 > theta = 3; a stage that
        # keeps it whole is exact but leaves the fiber at S = [] wasteful.
        g = unary({(0, 0): (9, 9), (0, 4): (9, 9)})
        stage = StageRecord(s=frozenset(), g_prime=g, moved={})
        check = stage_check(g, stage, 3, "fibers thrifty")
        assert (check["passed"], check["detail"]) == (False, "fiber <>")
        assert stage_check(g, stage, 5, "fibers thrifty")["passed"]

    def test_verifier_names_the_least_wasteful_fiber(self):
        # At S = {1} and theta = 2 the (2|0) and (1|0) fibers are wasteful,
        # in that graph order; the (0|0) fiber has the least key but only
        # a thrifty tuple (bound 2), so the detail names (1|0)'s.
        g = PartialFn(idx(1, 2), {
            tup((2, 0), (0, 9)): pt(0, 0),
            tup((0, 0), (4, 1)): pt(0, 1),
            tup((1, 0), (0, 5)): pt(1, 1),
        })
        stage = StageRecord(s=idx(1), g_prime=g, moved={})
        check = stage_check(g, stage, 2, "fibers thrifty")
        assert (check["passed"], check["detail"]) == (False,
                                                      "fiber <1:(1|0)>")

    def test_verifier_rechecks_the_composed_inner_map(self):
        g = unary({(0, 0): (9, 9), (1, 0): (9, 9)})
        trace = hereditary_decompose(g, theta=3)
        trace.h_composed = self.merge_onto_origin(g)
        assert compose(trace.g_prime, trace.h_composed) == g
        assert self.failing_checks(g, trace) == [
            "composed inner map is the stages' composition"]

    def test_final_check_needs_every_subset_once_in_order(self):
        # (0|9) and (1|1) share the fiber (0|0) at S = [2], where (5|5)'s
        # preimage has bound 1 + 9 = 10 > theta = 3; at S = [] and [1] every
        # bound is 1.  Skipping S = [2] leaves that fiber wasteful, yet each
        # remaining stage checks out; only the coverage check catches it.
        g = PartialFn(idx(1, 2), {tup((0, 9), (0, 0)): pt(5, 5),
                                  tup((1, 1), (0, 0)): pt(5, 5)})
        empty, one, two, both = (frozenset(), frozenset({1}),
                                 frozenset({2}), frozenset({1, 2}))
        skipped = trace_over(g, [empty, one, both], 3)
        assert oracle.first_wasteful(skipped.g_prime, 3) == (
            two, MTuple.of({2: pt(0, 0)}), pt(5, 5))
        assert self.failing_checks(g, skipped) == [
            "final g' hereditarily thrifty"]
        for subsets in ([empty, one, one, two, both],
                        [empty, two, one, both]):
            assert self.failing_checks(g, trace_over(g, subsets, 3)) == [
                "final g' hereditarily thrifty"]
        assert not self.failing_checks(
            g, trace_over(g, [empty, one, two, both], 3))

    def test_composed_inner_map_is_the_fold_of_the_stages(self):
        # m = 3 "mary-witness" seed 5 moves four tuples at S = [1], one of
        # them its pick; the trace composes once what trace_over folds
        inst = generate_instance(3, 8, 4, 5, "mary-witness")
        trace = hereditary_decompose(inst.g, inst.theta)
        assert [len(stage.moved) for stage in trace.stages] == [
            0, 4, 0, 0, 0, 0, 0, 0]
        reference = trace_over(inst.g, all_subsets([1, 2, 3]), inst.theta)
        assert trace.h_composed == reference.h_composed
        assert trace.h_composed != {u: u for u in inst.g.graph}

    def test_generated_instances_decompose(self):
        for seed in range(5):
            inst = generate_instance(m=2, horizon=8, theta=4, seed=seed)
            trace = hereditary_decompose(inst.g, inst.theta)
            assert verify_decomposition(inst.g, trace).passed


class TestLinearFiberScans:
    @staticmethod
    def restrict_calls(monkeypatch, n):
        """MTuple.restrict calls made while decomposing an m = 3 function of
        n entries, all thrifty, with distinct keys at every nonempty S, and
        building its K-tables."""
        theta = 8
        g = PartialFn(full_index(3), {
            tup((k, k % theta), (2 * k, (k + 1) % theta), (3 * k, 0)):
                pt(0, k % theta)
            for k in range(n)
        })
        calls = [0]
        original = MTuple.restrict

        def counting(self, s):
            calls[0] += 1
            return original(self, s)

        monkeypatch.setattr(MTuple, "restrict", counting)
        trace = hereditary_decompose(g, theta)
        fiber_k_tables(trace.g_prime, theta)
        monkeypatch.setattr(MTuple, "restrict", original)
        return calls[0]

    def test_restrict_calls_grow_linearly(self, monkeypatch):
        small = self.restrict_calls(monkeypatch, 150)
        large = self.restrict_calls(monkeypatch, 300)
        assert large <= 2.2 * small
