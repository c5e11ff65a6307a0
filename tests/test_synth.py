import math
import random

import pytest

from clonecover.analysis import width
from clonecover.core import (
    MTuple,
    ORIGIN,
    PartialFn,
    WITNESS_ATOM,
    compile_term,
    full_index,
)
from clonecover.decompose import AdmissibilityError
from clonecover.instances import PROFILES, generate_instance
from clonecover.serialize import term_dumps, term_loads
from clonecover.synth import (
    StageError,
    build_h_family,
    end_to_end_synthesize,
    factor_keys,
    fiber_k_tables,
    helper_name,
    main_lemma_certify,
    normal_witness,
    normalize_f,
    oplus,
    reduce_to_unary,
    spanned_family,
    verify_Q_in_CI,
    width1_slices,
)

import oracle
from conftest import (idx, maximal_products, product_image, pt, relabeled,
                      tup, unary)
from test_acceptance import product_image_width, sampled_width1_family


class TestOplus:
    def test_frozen_values(self):
        assert oplus(1, 0) == 1
        assert oplus(3, 1) == 10
        assert oplus(5, 4) == 29

    def test_rejects_k_at_or_above_n(self):
        with pytest.raises(ValueError):
            oplus(3, 3)
        with pytest.raises(ValueError):
            oplus(0, 0)

    def test_injective_exhaustively(self):
        seen = {}
        for n in range(1, 60):
            for k in range(n):
                code = oplus(n, k)
                assert code not in seen
                seen[code] = (n, k)


class TestWidth1Slices:
    def test_each_slice_has_width_one(self):
        points = [pt(x, y) for x in range(3) for y in range(2)]
        for sl in width1_slices(points):
            assert width(sl) <= 1

    def test_slices_partition_the_set(self):
        points = {pt(0, 0), pt(1, 0), pt(0, 3)}
        slices = width1_slices(points)
        assert set().union(*slices) == points
        assert sum(len(s) for s in slices) == len(points)

    def test_empty(self):
        assert width1_slices([]) == []


class TestReduceToUnary:
    def test_unary_witness_taken_as_is(self):
        # A width-1 slice of the domain (two lines) maps onto one line.
        f = unary({(0, 0): (0, 5), (0, 1): (1, 5)})
        assert reduce_to_unary(f, []) == f

    def test_binary_witness_needs_candidates(self):
        # f(u, anchor) blows up width; candidates are the identity and the
        # constant anchor.
        f = PartialFn(idx(1, 2), {
            tup((0, 0), (9, 9)): pt(0, 5),
            tup((0, 1), (9, 9)): pt(1, 5),
        })
        ident = unary({(0, 0): (0, 0), (0, 1): (0, 1)})
        const = unary({(0, 0): (9, 9), (0, 1): (9, 9)})
        got = reduce_to_unary(f, [ident, const])
        assert got.graph == {
            tup((0, 0)): pt(0, 5), tup((0, 1)): pt(1, 5),
        }

    def test_exhaustion_is_an_error(self):
        # one tuple, one value: no composite blows up width
        f = PartialFn(idx(1, 2), {tup((0, 0), (0, 0)): pt(0, 5)})
        ident = unary({(0, 0): (0, 0)})
        with pytest.raises(AdmissibilityError):
            reduce_to_unary(f, [ident])

    def test_no_checked_construction(self, monkeypatch):
        # Every composite keys a candidate's own checked tuples to f's own
        # points, so none goes through the checked constructor.
        inst = generate_instance(3, 64, 32, 0, "mary-witness")
        built = []
        checked = PartialFn.__init__

        def counting(fn, *args):
            built.append(fn)
            checked(fn, *args)

        monkeypatch.setattr(PartialFn, "__init__", counting)
        assert len(reduce_to_unary(inst.f, inst.candidates)) == 2016
        assert built == []


class TestNormalizeF:
    def make_planted(self, horizon):
        """A scrambled witness with lines of sizes 1..horizon-1 and strictly
        increasing common row labels."""
        graph = {}
        rows = [10 + 3 * k for k in range(horizon - 1)]
        lines = {n: 50 + 7 * n for n in range(1, horizon)}
        label = 0
        for n in range(1, horizon):
            for k in range(n):
                graph[tup((0, 100 + label))] = pt(rows[k], lines[n])
                label += 1
        return PartialFn(full_index(1), graph)

    def test_star_shape_holds(self):
        # read through the relabelings, f is (k | n) at every n (+) k
        for horizon in (3, 5, 8):
            f = self.make_planted(horizon)
            nw = normalize_f(f, horizon)
            for n in range(1, horizon):
                for k in range(n):
                    assert relabeled(f, nw, oplus(n, k)) == pt(k, n)

    def test_origin_convention(self):
        assert normal_witness(4).graph[tup((0, 0))] == ORIGIN

    def test_relabel_maps_are_injective(self):
        nw = normalize_f(self.make_planted(6), 6)
        assert len(set(nw.line_map.values())) == len(nw.line_map)
        assert len(set(nw.row_map.values())) == len(nw.row_map)

    def test_relabel_domain_tracks_original(self):
        # keyed by the codes n (+) k in (n, k) order, f*'s entry order,
        # each sent to the original preimage that f* relabels there
        f = self.make_planted(4)
        nw = normalize_f(f, 4)
        pairs = [(n, k) for n in range(1, 4) for k in range(n)]
        assert list(nw.relabel_domain) == [oplus(n, k) for n, k in pairs]
        for n, k in pairs:
            label = n * (n - 1) // 2 + k  # make_planted's (n, k)-th label
            assert nw.relabel_domain[oplus(n, k)] == pt(0, 100 + label)
            assert relabeled(f, nw, oplus(n, k)) == pt(k, n)

    def test_too_few_lines_is_an_error(self):
        f = unary({(0, 0): (5, 7)})
        with pytest.raises(AdmissibilityError):
            normalize_f(f, 4)

    def test_off_column_preimage_is_an_error(self):
        f = unary({(3, 0): (5, 7), (3, 1): (6, 8), (3, 2): (6, 9)})
        with pytest.raises(AdmissibilityError):
            normalize_f(f, 3)

    def test_inconsistent_row_is_an_error(self):
        # Row 7 is the first point of line 20 but the second of line 10.
        f = unary({(0, 0): (5, 10), (0, 1): (7, 10), (0, 2): (7, 20)})
        with pytest.raises(AdmissibilityError,
                           match="^row 7 cannot be relabeled consistently$"):
            normalize_f(f, 3)

    @pytest.mark.parametrize("graph, horizon, message", [
        # (1, 0) has its preimage off x = 0; (2, 1) puts row 7 at k = 1
        # after (1, 0) put it at k = 0.
        ({(1, 2): (7, 20), (0, 0): (5, 10), (0, 1): (7, 10)}, 3,
         "witness preimage (1|2) is off the x=0 column"),
        # (2, 1) puts row 7 at k = 1 after (1, 0) put it at k = 0; (3, 1)
        # has its preimage off x = 0.
        ({(0, 0): (7, 10), (0, 1): (5, 20), (0, 2): (7, 20),
          (0, 3): (1, 30), (1, 4): (2, 30), (0, 5): (3, 30)}, 4,
         "row 7 cannot be relabeled consistently"),
    ])
    def test_the_first_fault_in_n_k_order_is_named(self, graph, horizon,
                                                   message):
        f = unary(graph)
        for normalize, error in ((normalize_f, AdmissibilityError),
                                 (oracle.normalize, oracle.AdmissibilityError)):
            with pytest.raises(error) as raised:
                normalize(f, horizon)
            assert str(raised.value) == message

    def test_line_tie_goes_to_the_smaller_label(self):
        f = unary({(0, 0): (0, 4), (0, 1): (1, 4),
                   (0, 2): (0, 10), (0, 3): (1, 10)})
        assert normalize_f(f, 3).line_map == {10: 1, 4: 2}

    def test_f_star_depends_on_the_horizon_only(self):
        # Generated witnesses, scrambled differently per profile, all
        # normalize to the horizon's own f*, in the reference reading too.
        for horizon, profile in zip((8, 12, 16), PROFILES):
            inst = generate_instance(1, horizon, 4, horizon, profile)
            f = reduce_to_unary(inst.f, inst.candidates)
            nw, f_star = normalize_f(f, horizon), normal_witness(horizon)
            for code in (oplus(n, k) for n in range(1, horizon)
                         for k in range(n)):
                assert (relabeled(f, nw, code)
                        == f_star.graph[tup((0, code))])
            assert oracle.normalize(f, horizon)[0] == f_star


class TestPStar:
    def test_pair_count(self):
        # m * 2^(m-1) pairs (S, j) after the m inputs, for m = 1..6
        for m, expected in ((1, 1), (2, 4), (3, 12), (4, 32), (5, 80),
                            (6, 192)):
            assert len(factor_keys(m)) == m + expected

    def test_slots_follow_the_inputs(self):
        assert factor_keys(2) == (1, 2, (frozenset(), 1), (frozenset(), 2),
                                  (idx(1), 2), (idx(2), 1))


class TestBuildH:
    def test_frozen_example(self):
        # K at line 7 for the sole fiber is 3; z_1^y = 2 < 3, so the helper
        # returns (0 | 3 (+) 2) = (0|11).
        q = unary({(0, 2): (4, 7)})
        family = build_h_family(q, factor_keys(1), fiber_k_tables(q, theta=4))
        assert family[frozenset(), 1].graph == {tup((0, 2)): pt(0, 11)}

    def test_undefined_above_the_bound(self):
        # K at line 7 for S = {} is 1: z_2^y = 0 lies below it, giving
        # (0 | 1 (+) 0) = (0|1); z_1^y = 5 does not, so that helper reads
        # (0|0) there.
        u = tup((0, 5), (0, 0))
        q = PartialFn(idx(1, 2), {u: pt(4, 7)})
        family = build_h_family(q, factor_keys(2), fiber_k_tables(q, theta=6))
        assert family[frozenset(), 2].graph == {u: pt(0, 1)}
        assert family[frozenset(), 1].graph == {u: ORIGIN}

    def test_range_is_x0_and_width1(self):
        inst = generate_instance(m=2, horizon=8, theta=4, seed=3)
        res = end_to_end_synthesize(inst.g, inst.f, inst.theta, inst.horizon,
                                    unary_candidates=inst.candidates)
        for h in res.h_family.values():
            ran = set(h.graph.values())
            assert all(p.x == 0 for p in ran)
            assert width(ran) <= 1

    def test_family_has_one_helper_per_pair_in_key_order(self):
        # the (S, j) pairs past the inputs, j outside S; none at S = arity
        q = PartialFn(idx(1, 2), {tup((0, 1), (0, 2)): pt(4, 7)})
        keys = factor_keys(2)
        family = build_h_family(q, keys, fiber_k_tables(q, theta=4))
        assert list(family) == list(keys[2:])
        assert all(h.domain() == q.domain() for h in family.values())

    def test_k_columns_in_graph_order(self):
        # graph order meets lines 7, 3, 7, 5.  A tuple's K is the largest
        # bound on its value's line in its fiber: at S = {} the two tuples
        # on line 7 share K = 5, at S = {1} their fibers <1:(0|4)> and
        # <1:(0|2)> part them.  No column is made at S = the arity, where
        # every K is 0.
        q = PartialFn(idx(1, 2), {tup((0, 4), (0, 5)): pt(1, 7),
                                  tup((0, 1), (0, 1)): pt(2, 3),
                                  tup((0, 2), (0, 3)): pt(3, 7),
                                  tup((1, 4), (0, 4)): pt(4, 5)})
        entry_k, ys = fiber_k_tables(q, theta=6)
        assert list(entry_k.items()) == [(frozenset(), [5, 2, 5, 5]),
                                         (idx(1), [6, 2, 4, 5]),
                                         (idx(2), [5, 2, 3, 5])]
        assert ys == {1: [4, 1, 2, 4], 2: [5, 1, 3, 4]}
        assert fiber_k_tables(unary({(0, 4): (1, 7)}), theta=6) == (
            {frozenset(): [5]}, {1: [4]})

    def test_every_helper_lists_dom_q_in_graph_order(self):
        # build_Q reads each helper's values as a column over q's graph
        inst = generate_instance(3, 8, 4, 5, "mary-witness")
        res = end_to_end_synthesize(inst.g, inst.f, inst.theta, inst.horizon,
                                    unary_candidates=inst.candidates)
        order = list(res.trace.g_prime.graph)
        assert order != sorted(order)
        assert len(res.h_family) == 12
        for h in res.h_family.values():
            assert list(h.graph) == order


class TestBuildQ:
    def setup_result(self):
        inst = generate_instance(m=2, horizon=8, theta=4, seed=11)
        res = end_to_end_synthesize(inst.g, inst.f, inst.theta, inst.horizon,
                                    unary_candidates=inst.candidates)
        return inst, res

    def test_table_values_match_the_core(self):
        inst, res = self.setup_result()
        m = inst.m
        q = res.trace.g_prime
        assert res.q_table.arity == full_index(len(factor_keys(m)))
        assert len(res.q_table) == len(q)
        for uv, val in res.q_table.graph.items():
            u = uv.restrict(full_index(m))
            assert q.graph[u] == val

    def test_table_passes_the_checked_constructor(self):
        inst, res = self.setup_result()
        checked = PartialFn(res.q_table.arity, res.q_table.graph)
        assert checked == res.q_table
        assert list(checked.graph) == list(res.q_table.graph)

    def test_slots_hold_witness_outputs(self):
        inst, res = self.setup_result()
        keys = factor_keys(inst.m)
        f_star = res.term.env["f*"].fn.graph
        for uv in res.q_table.graph:
            u = uv.restrict(inst.g.arity)
            for slot, pair in enumerate(keys[inst.m:], inst.m + 1):
                helper_value = res.h_family[pair].graph[u]
                assert uv[slot] == f_star[MTuple.of({1: helper_value})]

    def test_undefined_helper_slot_is_witness_at_origin(self):
        # Off its bound a helper reads (0|0), where f* is (0|0) too.
        inst, res = self.setup_result()
        keys = factor_keys(inst.m)
        anchor = res.term.env["f*"].fn.graph[tup((0, 0))]
        hit = False
        for uv in res.q_table.graph:
            u = uv.restrict(inst.g.arity)
            for slot, pair in enumerate(keys[inst.m:], inst.m + 1):
                if res.h_family[pair].graph[u] == ORIGIN:
                    assert uv[slot] == anchor
                    hit = True
        assert hit

    def test_term_binds_the_helpers_as_built(self):
        # The helper range certificates and the term read one object.
        inst, res = self.setup_result()
        for s, j in factor_keys(inst.m)[inst.m:]:
            assert res.term.env[helper_name(s, j)].fn is res.h_family[s, j]

    def test_term_binds_the_normalized_witness_once(self):
        # f* reaches the term as its one witness atom, and it is the
        # normalized witness up to the horizon.
        inst, res = self.setup_result()
        witnesses = [n for n, b in res.term.env.items()
                     if b.kind == WITNESS_ATOM]
        assert witnesses == ["f*"]
        assert res.term.env["f*"].fn == normal_witness(inst.horizon)


def certificate_rows(certs):
    """The certificates as `oracle.certify_every_pair` lists its own."""
    return [(c.line, c.perm, c.candidate, c.qualifying, not c.detail,
             c.detail) for c in certs]


class TestSelectorCertificates:
    def test_end_to_end_term_equality(self):
        for m in (1, 2):
            inst = generate_instance(m=m, horizon=8, theta=4, seed=7)
            res = end_to_end_synthesize(
                inst.g, inst.f, inst.theta, inst.horizon,
                unary_candidates=inst.candidates)
            us = sorted(inst.g.domain())
            assert compile_term(res.term)(us) == [inst.g.graph[u] for u in us]

    def test_main_lemma_on_full_factors(self):
        # Width-1 factors covering every occurring point of the selector.
        inst = generate_instance(m=2, horizon=8, theta=4, seed=5)
        res = end_to_end_synthesize(inst.g, inst.f, inst.theta, inst.horizon,
                                    unary_candidates=inst.candidates)
        m = inst.m
        keys = factor_keys(m)
        factors = {}
        for slot, key in enumerate(keys, 1):
            pts = {uv[slot] for uv in res.q_table.graph}
            sl = next(iter(width1_slices(pts)), frozenset())
            factors[key] = {p.y: p.x for p in sl}
        verdict = verify_Q_in_CI(res.q_table, m)
        assert verdict.bound == math.factorial(m)
        assert verdict.observed <= verdict.bound
        image = {val for uv, val in res.q_table.graph.items()
                 if all(uv[slot].x == factors[key].get(uv[slot].y, 0)
                        for slot, key in enumerate(keys, 1))}
        assert width(image) <= verdict.observed
        certs = main_lemma_certify(res.q_table, factors, m)
        reference = oracle.certify_every_pair(res.q_table, factors, m)
        assert certificate_rows(certs) == [
            row for row in reference if row[3]]
        assert all(row[4] for row in reference)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("profile", PROFILES)
    def test_certificates_are_the_reference_pairs_with_an_entry(self, m,
                                                                profile):
        # On the worst-case family, on each entry's spanned family and on
        # sampled families, which hold entries on several value lines, the
        # certificates are exactly the every-pair reference's with a
        # qualifying entry, and each reference pair without one passes.
        horizon, theta = (12, 6) if m == 4 else (8, 4)
        inst = generate_instance(m, horizon, theta, 5, profile)
        res = end_to_end_synthesize(
            inst.g, inst.f, inst.theta, inst.horizon,
            unary_candidates=inst.candidates)
        entries = verify_Q_in_CI(res.q_table, m).entries
        rng = random.Random(m)
        families = [spanned_family(entries, m)] + [
            spanned_family((uv,), m) for uv in sorted(res.q_table.graph)] + [
            sampled_width1_family(res.q_table, m, rng, inst.ceiling)
            for _ in range(5)]
        with_entries = 0
        for family in families:
            certs = main_lemma_certify(res.q_table, family, m)
            reference = oracle.certify_every_pair(res.q_table, family, m)
            assert certificate_rows(certs) == [
                row for row in reference if row[3]]
            assert all(row[4] for row in reference if not row[3])
            with_entries += bool(certs)
        # at least the worst-case and spanned families hold an entry each
        assert with_entries >= 1 + len(res.q_table)

    def test_width_verifier_rejects_lines_wider_than_w(self):
        # The two entries put columns 0 and 1 on line 0 of slot 1: one
        # width-2 product holds both, no width-1 product does.
        first, second = tup((0, 0), (0, 0)), tup((1, 0), (0, 0))
        q_table = PartialFn(idx(1, 2), {first: pt(0, 5), second: pt(1, 5)})
        assert max(width(product_image(q_table, product))
                   for product in maximal_products(q_table, 2)) == 2
        narrow = verify_Q_in_CI(q_table, 1)
        assert (narrow.observed, narrow.line, narrow.entries) == (
            1, 5, (first,))
        assert narrow.observed <= narrow.bound

    def test_spanned_family_rejects_entries_that_disagree(self):
        # the family the certificates read spans agreeing entries only
        with pytest.raises(ValueError, match="width above 1 on line 0"):
            spanned_family([tup((0, 0), (0, 0)), tup((1, 0), (0, 0))], 1)

    def test_unlisted_lines_read_column_0(self):
        # The input factor lists line 1 only; the entries on lines 0 and 2
        # lie in the product at column 0, and so does the K-chain's read.
        # Line 5's K is 3, the bound of the inputs on line 2.
        on_0, on_1, on_2 = (tup((0, 0), (0, 0)), tup((4, 1), (0, 0)),
                            tup((0, 2), (0, 0)))
        off = tup((3, 2), (0, 0))
        q_table = PartialFn(idx(1, 2), {
            on_0: pt(0, 5), on_1: pt(1, 5), on_2: pt(2, 5), off: pt(3, 5)})
        factors = {1: {1: 4}, (frozenset(), 1): {}}
        [cert] = main_lemma_certify(q_table, factors, 1)
        assert cert.qualifying == (on_0, on_2, on_1)
        assert cert.candidate == {1: pt(0, 0)}
        assert product_image_width(q_table, factors, 1) == 3

    def test_qualifying_entries_in_canonical_order(self):
        first, second = tup((0, 0), (0, 0)), tup((0, 1), (0, 1))
        q_table = PartialFn(idx(1, 2), {second: pt(1, 0), first: pt(0, 0)})
        factor = {0: 0, 1: 0}
        factors = {1: factor, (frozenset(), 1): factor}
        [cert] = main_lemma_certify(q_table, factors, 1)
        assert cert.qualifying == (first, second)
        assert cert.detail == "more than one qualifying entry"

    def test_a_candidate_off_every_entry_breaks_the_k_chain(self):
        # The lone entry's inputs lie on lines 3 and 1, so it qualifies
        # under perm (2, 1).  Step 2 reads K = 2 at S = {}, where the
        # ({}, 2) factor lists no line: column 0, line 0 of input 2, so
        # the candidate's <2:(0|0)> fiber holds no entry on line 5.
        uv = MTuple.of({1: pt(0, 3), 2: pt(0, 1), 3: pt(0, 7),
                        4: pt(0, 7), 5: pt(0, 7), 6: pt(0, 7)})
        q_table = PartialFn(full_index(6), {uv: pt(0, 5)})
        family = spanned_family((uv,), 2)
        [cert] = main_lemma_certify(q_table, family, 2)
        assert (cert.perm, cert.candidate, cert.detail) == (
            (2, 1), {2: pt(0, 0)}, "qualifying entry despite missing K chain")
        assert certificate_rows([cert]) == [
            row for row in oracle.certify_every_pair(q_table, family, 2)
            if row[3]]

    def test_a_fiber_that_empties_at_the_third_step(self):
        # m = 3 over 15 slots, all on value line 5; both entries hold
        # <1:(0|1)>.  The qualifying entry's inputs lie on lines 1, 2, 3
        # (perm (1, 2, 3)), and it puts the helper columns that send the
        # chain to line 1 of input 1, then to line 7 of input 2.  The
        # other entry lies off the product (slot 3 holds column 5), but
        # its inputs keep the fiber at S = {1} two tuples wide; neither
        # has <2:(0|7)>, so the fiber at S = {1, 2} is empty.
        def row(inputs, helpers):
            points = dict(enumerate(inputs + [(0, 0)] * 12, 1))
            points.update(helpers)
            return MTuple.of({i: pt(*p) for i, p in points.items()})

        keys = factor_keys(3)
        slot = {key: at for at, key in enumerate(keys, 1)}
        qualifying = row([(0, 1), (0, 2), (0, 3)], {
            slot[frozenset(), 1]: (1, 2), slot[idx(1), 2]: (7, 3)})
        other = row([(0, 1), (0, 4), (5, 0)], {})
        q_table = PartialFn(full_index(len(keys)), {
            qualifying: pt(0, 5), other: pt(1, 5)})
        family = spanned_family((qualifying,), 3)
        [cert] = main_lemma_certify(q_table, family, 3)
        assert (cert.perm, cert.candidate, cert.qualifying, cert.detail) == (
            (1, 2, 3), {1: pt(0, 1), 2: pt(0, 7)}, (qualifying,),
            "qualifying entry despite missing K chain")
        assert certificate_rows([cert]) == [
            row for row in oracle.certify_every_pair(q_table, family, 3)
            if row[3]]

    def test_a_short_row_raises(self):
        # Q's second slot is missing: the row lies in the product as far
        # as it goes, and neither reader may take it as complete.
        short = tup((0, 0))
        q_table = PartialFn(idx(1), {short: pt(0, 5)})
        family = {1: {}, (frozenset(), 1): {}}
        with pytest.raises((KeyError, ValueError)):
            main_lemma_certify(q_table, family, 1)
        with pytest.raises((KeyError, ValueError)):
            spanned_family((short,), 1)
        with pytest.raises((KeyError, ValueError)):
            spanned_family((tup((0, 0), (0, 0)), short), 1)

    def test_spanned_family_names_the_first_slot_that_conflicts(self):
        # The second entry conflicts with the first on slot 2 only, the
        # third on slot 1 only: slot 1's key is named.
        entries = [tup((0, 0), (0, 3)), tup((0, 0), (2, 3)),
                   tup((1, 0), (0, 3))]
        with pytest.raises(ValueError) as raised:
            spanned_family(entries, 1)
        assert str(raised.value) == "factor 1 has width above 1 on line 0"

    @pytest.mark.parametrize("m, horizon, theta", [(3, 8, 4), (5, 16, 10)])
    def test_certificates_read_rows_in_slot_order(self, monkeypatch, m,
                                                  horizon, theta):
        # u[i] scans u's entries, so reading a selector row slot by slot
        # is quadratic in its m + m 2^(m-1) slots.  Spanning the family
        # and certifying read rows in slot order: at most m index reads
        # per certificate.
        inst = generate_instance(m, horizon, theta, 0, "mixed")
        res = end_to_end_synthesize(
            inst.g, inst.f, inst.theta, inst.horizon,
            unary_candidates=inst.candidates)
        entries = verify_Q_in_CI(res.q_table, m).entries
        reads = [0]
        original = MTuple.__getitem__

        def counting(self, i):
            reads[0] += 1
            return original(self, i)

        monkeypatch.setattr(MTuple, "__getitem__", counting)
        family = spanned_family(entries, m)
        certs = main_lemma_certify(res.q_table, family, m)
        monkeypatch.undo()
        assert certs and not any(cert.detail for cert in certs)
        assert reads[0] <= m * len(certs)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_certificates_read_the_shipped_table_alone(self, m):
        # The loaded term's Q gives the certificates the synthesized one
        # does: every K they read comes from the table.
        inst = generate_instance(m, 8, 4, 5, "mary-witness")
        res = end_to_end_synthesize(
            inst.g, inst.f, inst.theta, inst.horizon,
            unary_candidates=inst.candidates)
        shipped = term_loads(term_dumps(res.term)).env["Q"].fn
        assert shipped == res.q_table
        families = [spanned_family((uv,), m)
                    for uv in sorted(res.q_table.graph)]
        for family in families + [spanned_family(
                verify_Q_in_CI(res.q_table, m).entries, m)]:
            assert main_lemma_certify(shipped, family, m) == (
                main_lemma_certify(res.q_table, family, m))

    def test_verify_Q_in_CI_bound_formula(self):
        for m in (1, 2, 3):
            inst = generate_instance(m, horizon=8, theta=4, seed=2)
            res = end_to_end_synthesize(
                inst.g, inst.f, inst.theta, inst.horizon,
                unary_candidates=inst.candidates)
            verdict = verify_Q_in_CI(res.q_table, m)
            assert verdict.bound == math.factorial(m)
            assert verdict.observed <= verdict.bound
            # At the table's own widest (slot, line), the whole table lies
            # in one width-w product, the union of w^K width-1 products.
            columns: dict = {}
            for uv in res.q_table.graph:
                for i, p in uv.items():
                    columns.setdefault((i, p.y), set()).add(p.x)
            w = max(map(len, columns.values()))
            assert width(res.q_table.graph.values()) <= (
                w ** len(res.q_table.arity) * verdict.observed)


def crafted_selector(decoys: int) -> PartialFn:
    """An m = 1 selector whose width-1 worst case is 2 = 1! + 1, on value
    line 9.  Only the product holding column 0 on lines 1 and 2 of slot 1
    and on lines 3 and 4 of slot 2 reaches it; each of those (slot, line)s
    holds ``decoys`` more columns, through entries with values of their
    own lines."""
    graph = {tup((0, 1), (0, 3)): pt(0, 9), tup((0, 2), (0, 4)): pt(1, 9)}
    for c in range(1, decoys + 1):
        graph[tup((c, 1), (c, 3))] = pt(0, 100 + c)
        graph[tup((c, 2), (c, 4))] = pt(0, 200 + c)
    return PartialFn(idx(1, 2), graph)


class TestExactSelectorWidth:
    def test_one_family_above_the_bound_fails_the_check(self):
        q_table = crafted_selector(decoys=5)
        verdict = verify_Q_in_CI(q_table, 1)
        assert (verdict.observed, verdict.bound, verdict.line) == (2, 1, 9)
        assert verdict.entries == (tup((0, 1), (0, 3)), tup((0, 2), (0, 4)))
        reaching = [product for product in maximal_products(q_table, 1)
                    if width(product_image(q_table, product)) == 2]
        assert len(reaching) == 1
        # Random width-1 families, three per seed, all miss it.
        for seed in range(10):
            rng = random.Random(seed)
            for _ in range(3):
                family = sampled_width1_family(q_table, 1, rng, ceiling=72)
                assert product_image_width(q_table, family, 1) <= 1

    def test_spanned_family_meets_every_line_the_certificates_read(self):
        # Line 9's K-chain reads the (S, j) factor at K = 2, the bound of
        # the entry's input line 1, where the entry puts column 7, then the
        # input factor at line 7, which it does not list (column 0).
        # A selector built by build_Q puts the input's line there, not 7, so
        # this table fails line 9's certificate; it must not raise.  Line
        # 4's entry lies off the product, so line 4 gets no certificate.
        worst, other = tup((3, 1), (7, 2)), tup((1, 1), (0, 0))
        q_table = PartialFn(idx(1, 2), {worst: pt(0, 9), other: pt(0, 4)})
        verdict = verify_Q_in_CI(q_table, 1)
        assert verdict.entries in ((worst,), (other,))
        family = spanned_family((worst,), 1)
        assert family == {1: {1: 3}, (frozenset(), 1): {2: 7}}
        certs = main_lemma_certify(q_table, family, 1)
        assert [(c.line, c.candidate, c.detail) for c in certs] == [
            (9, {1: pt(0, 7)}, "qualifying entry differs from candidate")]

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("profile", PROFILES)
    def test_certificates_read_the_worst_case_family(self, m, profile):
        inst = generate_instance(m, 8, 4, 5, profile)
        res = end_to_end_synthesize(
            inst.g, inst.f, inst.theta, inst.horizon,
            unary_candidates=inst.candidates)
        verdict = verify_Q_in_CI(res.q_table, m)
        family = spanned_family(verdict.entries, m)
        # reading unlisted lines as column 0 adds no width beyond the
        # worst case
        assert product_image_width(res.q_table, family, m) == (
            verdict.observed)
        certs = main_lemma_certify(res.q_table, family, m)
        assert certs and not any(cert.detail for cert in certs)
        # every worst-case entry is checked by some certificate
        qualifying = {uv for cert in certs for uv in cert.qualifying}
        assert set(verdict.entries) <= qualifying


class TestEndToEnd:
    def test_stage_errors_carry_the_stage_tag(self):
        g = unary({(0, 0): (1, 1)})
        bad_f = unary({(0, 0): (5, 7)})  # cannot be normalized at horizon 4
        with pytest.raises(StageError) as exc:
            end_to_end_synthesize(g, bad_f, theta=2, horizon=4)
        assert exc.value.stage == "normalize"

    def test_helper_code_beyond_the_horizon_fails_the_selector(self):
        # The lone tuple's line 10 gives K = 11, so the helper's code
        # 11 (+) 10 = 131 lies beyond f*'s codes below horizon 8.
        f = generate_instance(1, 8, 4, 0).f
        g = unary({(0, 10): (1, 1)})
        with pytest.raises(StageError) as exc:
            end_to_end_synthesize(g, f, theta=20, horizon=8)
        assert exc.value.stage == "selector"
        assert str(exc.value) == ("[selector] witness not defined at helper "
                                  "output (0|131); horizon too small")

    def test_first_undefined_helper_output_is_named(self):
        # Both tuples give helper codes beyond f*'s below horizon 8.  u is
        # first in q's graph order, w first in canonical order; u's slots
        # give 109 at (∅, 1) and ({1}, 2), 155 at ({2}, 1), and w's first
        # failing slot gives 181.  So the message names u's first slot.
        f = generate_instance(1, 8, 4, 0).f
        u, w = tup((0, 11), (0, 9)), tup((0, 0), (0, 12))
        g = PartialFn(idx(1, 2), {u: pt(1, 1), w: pt(2, 2)})
        with pytest.raises(StageError) as exc:
            end_to_end_synthesize(g, f, theta=20, horizon=8)
        assert exc.value.stage == "selector"
        assert str(exc.value) == ("[selector] witness not defined at helper "
                                  "output (0|109); horizon too small")

    def test_result_carries_all_artifacts(self):
        inst = generate_instance(m=1, horizon=6, theta=3, seed=1)
        res = end_to_end_synthesize(inst.g, inst.f, inst.theta, inst.horizon,
                                    unary_candidates=inst.candidates)
        assert res.term.arity == inst.g.arity
        assert set(res.h_family) == set(factor_keys(inst.m)[inst.m:])
