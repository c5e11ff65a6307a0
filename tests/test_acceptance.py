"""Acceptance gate: the eight headline guarantees, one test each.

Each test prints a single "criterion N: PASS/FAIL" line outside pytest's
capture so the gate is readable straight from the run log.  The instance
corpus (100 instances per arity, profiles cycled) is synthesized once and
shared across the criteria that quantify over "every generated instance".
"""
import bisect
import math
import random
import time
from collections import Counter

import pytest

from clonecover.analysis import width
from clonecover.core import (
    MTuple,
    PartialFn,
    Point,
    compile_term,
    compose,
)
from clonecover.decompose import verify_decomposition
from clonecover.instances import PROFILES, generate_instance
from clonecover.serialize import instance_dumps, report_dumps, term_dumps
from clonecover.synth import (
    end_to_end_synthesize,
    factor_keys,
    main_lemma_certify,
    normalize_f,
    oplus,
    spanned_family,
    verify_Q_in_CI,
)
from clonecover.pipeline import run_pipeline

import oracle
from conftest import (
    bound_of,
    idx,
    k_table_of,
    product_image,
    random_point_fn,
    random_tuple,
    random_tuple_map,
    relabeled,
)

INSTANCES_PER_M = 100


def _report(capsys, number: int, passed: bool, detail: str):
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {number}: {detail}"


def _corpus_params(seed):
    horizon = 12 if seed % 10 == 0 else 8
    return horizon, horizon // 2, PROFILES[seed % len(PROFILES)]


@pytest.fixture(scope="module")
def corpus():
    """100 synthesized instances per arity, with wall-clock timing."""
    out = {}
    t0 = time.perf_counter()
    for m in (1, 2, 3):
        runs = []
        for seed in range(INSTANCES_PER_M):
            horizon, theta, profile = _corpus_params(seed)
            inst = generate_instance(m, horizon, theta, seed, profile)
            result = end_to_end_synthesize(
                inst.g, inst.f, inst.theta, inst.horizon,
                unary_candidates=inst.candidates,
            )
            runs.append((inst, result))
        out[m] = runs
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_1_end_to_end_synthesis(corpus, capsys):
    mismatches = 0
    checked = 0
    oversized = 0
    for m in (1, 2, 3):
        for inst, result in corpus[m]:
            if len(inst.g) > 300:
                oversized += 1
            us = list(inst.g.graph)
            values = compile_term(result.term)(us)
            checked += len(us)
            mismatches += sum(v != inst.g.graph[u] for u, v in zip(us, values))
    elapsed = corpus["elapsed"]
    passed = mismatches == 0 and oversized == 0 and elapsed < 60.0
    _report(capsys, 1, passed,
            f"{3 * INSTANCES_PER_M} instances, {checked} tuples, "
            f"{mismatches} mismatches, synthesis in {elapsed:.1f}s")


def sampled_width1_family(q_table, m, rng, ceiling):
    """A random width-1 factor family biased toward the selector's points.

    One factor per input index and per (S, j) pair, keyed as the
    certificates read them, each a line -> column map.  Each line below the
    ceiling holds one column: with probability 0.7 one of the columns the
    selector puts on that (slot, line), otherwise a uniform one below the
    ceiling.
    """
    keys = factor_keys(m)
    occurring = {key: {} for key in keys}
    for uv in q_table.graph:
        for (_, p), key in zip(uv.items(), keys):
            occurring[key].setdefault(p.y, set()).add(p.x)
    family = {}
    for key in keys:
        factor = family[key] = {}
        for n in range(ceiling):
            cols = sorted(occurring[key].get(n, ()))
            if cols and rng.random() < 0.7:
                factor[n] = rng.choice(cols)
            else:
                factor[n] = rng.randrange(ceiling)
    return family


def product_image_width(q_table, family, m):
    """Width of the selector's image of the product of a width-1 factor
    family, by brute force over the table; a line a factor does not list
    holds column 0."""
    keys = factor_keys(m)
    return width(product_image(q_table, {
        (slot, p.y): {family[key].get(p.y, 0)}
        for uv in q_table.graph
        for (slot, p), key in zip(uv.items(), keys)}))


def test_criterion_2_selector_width_bound(corpus, capsys):
    # Sampled families rarely hold a table entry at m > 1, so each entry
    # also gets the family it spans; every m needs a certificate with a
    # qualifying entry, or the uniqueness count shows nothing.
    families_per_m = 50
    violations = 0
    above_exact = 0
    uniq_failures = 0
    sampled = spanned = 0
    qualified = {}
    for m in (1, 2, 3):
        inst, result = corpus[m][0]
        exact = verify_Q_in_CI(result.q_table, m).observed
        rng = random.Random(inst.seed + 1)
        families = [sampled_width1_family(result.q_table, m, rng,
                                          inst.ceiling)
                    for _ in range(families_per_m)]
        sampled += len(families)
        families += [spanned_family((uv,), m)
                     for uv in sorted(result.q_table.graph)]
        spanned += len(result.q_table)
        qualified[m] = 0
        for factors in families:
            observed = product_image_width(result.q_table, factors, m)
            if observed > math.factorial(m):
                violations += 1
            if observed > exact:
                above_exact += 1
            for cert in main_lemma_certify(result.q_table, factors, m):
                if cert.detail:
                    uniq_failures += 1
                if cert.qualifying:
                    qualified[m] += 1
    passed = (violations == 0 and uniq_failures == 0 and above_exact == 0
              and all(qualified.values()))
    _report(capsys, 2, passed,
            f"{sampled} sampled and {spanned} spanned width-1 families, "
            f"{violations} width violations, {uniq_failures} uniqueness "
            f"failures, {above_exact} above the exact worst case, "
            f"certificates with a qualifying entry at m=1,2,3: "
            f"{', '.join(str(qualified[m]) for m in (1, 2, 3))}")


def test_criterion_3_normalization(capsys):
    horizon = 16
    bad_seeds = []
    for seed in range(50):
        inst = generate_instance(1, horizon, horizon // 2, seed)
        nw = normalize_f(inst.f, horizon)
        ok = all(relabeled(inst.f, nw, oplus(n, k)) == Point(k, n)
                 for n in range(1, horizon) for k in range(n))
        if not ok:
            bad_seeds.append(seed)
    codes = {}
    collisions = 0
    for n in range(1, 1001):
        for k in range(n):
            code = oplus(n, k)
            if code in codes:
                collisions += 1
            codes[code] = (n, k)
    passed = not bad_seeds and collisions == 0
    _report(capsys, 3, passed,
            f"50 seeds at N={horizon}, bad seeds {bad_seeds}, "
            f"{collisions} code collisions up to n=1000")


def test_criterion_4_decomposition_contract(corpus, capsys):
    failures = []
    for m in (1, 2, 3):
        for inst, result in corpus[m]:
            verdict = verify_decomposition(inst.g, result.trace)
            if not verdict.passed:
                bad = [c["name"] for c in verdict.checks if not c["passed"]]
                failures.append((m, inst.seed, bad))
    _report(capsys, 4, not failures,
            f"{3 * INSTANCES_PER_M} traces verified, failures: {failures}")


def test_criterion_5_algebra_laws(capsys):
    rng = random.Random(0xA15EB)
    s, t = idx(1), idx(2)
    failures = 0
    cases = 0

    def law(ok):
        nonlocal cases, failures
        cases += 1
        if not ok:
            failures += 1

    for _ in range(250):
        c = MTuple.of({1: Point(rng.randrange(20), rng.randrange(20))})
        g = random_tuple_map(rng, t)
        f = random_point_fn(rng, t)
        # composition through the prefix operators
        law(oracle.star_fn(c, compose(f, g))
            == compose(oracle.star_fn(c, f), oracle.hash_fn(c, g)))
        # fibering a prefixed function recovers it
        law(oracle.fiber(oracle.star_fn(c, f), s, c) == f)

    for _ in range(250):
        q = random_point_fn(rng, idx(1, 2), size=rng.randint(1, 12))
        # reconstruction from fibers
        parts = [oracle.star_fn(c, p) for c, p in oracle.fibers(q, s).items()]
        law(oracle.disjoint_union(parts) == q)

    for _ in range(250):
        inner = random_tuple_map(rng, t, size=rng.randint(1, 10))
        outer = random_point_fn(rng, t, size=rng.randint(1, 10))
        gs = [dict() for _ in range(3)]
        pieces_out = [dict() for _ in range(3)]
        for u, v in inner.items():
            gs[rng.randrange(3)][u] = v
        for u, v in outer.graph.items():
            pieces_out[rng.randrange(3)][u] = v
        fs = [PartialFn(t, gr) for gr in pieces_out]
        # union of pieced compositions sits inside the composed unions
        left = oracle.disjoint_union(
            [compose(fo, gi) for fo, gi in zip(fs, gs)])
        law(left.is_subfunction_of(compose(outer, inner)))

    for _ in range(250):
        h_prime = random_tuple_map(rng, t, size=rng.randint(1, 10))
        g_prime = random_point_fn(rng, t, size=rng.randint(1, 10))
        full = compose(g_prime, h_prime)
        sub = full.restrict(
            [u for u in sorted(full.domain()) if rng.random() < 0.6])
        h = oracle.shrink_inner(sub, g_prime, h_prime)
        law(h.items() <= h_prime.items() and compose(g_prime, h) == sub)

    for _ in range(250):
        a = {random_tuple(rng, t) for _ in range(rng.randint(0, 8))}
        b = {random_tuple(rng, t) for _ in range(rng.randint(0, 8))} - a
        # bound of a disjoint union is the max of the bounds, read off
        # tuple_bounds at S = {}
        law(bound_of(a | b) == max(bound_of(a), bound_of(b)))

    passed = failures == 0 and cases >= 1000
    _report(capsys, 5, passed, f"{cases} law cases, {failures} failures")


def _naive_width(points):
    counts = Counter(p.y for p in set(points))
    return max(counts.values(), default=0)


def _naive_least_bound(tuples):
    tuples = list(tuples)
    if not tuples or not tuples[0].indices:
        return 0
    # the least k at which every tuple has a component below line k; the
    # predicate is monotone in k, so bisect rather than count up to it
    top = max(p.y for u in tuples for p in u.points())
    return bisect.bisect_left(
        range(1 + top), True,
        key=lambda k: all(any(p.y < k for p in u.points()) for u in tuples))


def _naive_k_table(t):
    by_line = {}
    for u, v in t.graph.items():
        by_line.setdefault(v.y, []).append(u)
    return {n: _naive_least_bound(us) for n, us in by_line.items()}


def test_criterion_6_oracle_equivalence(capsys):
    rng = random.Random(0x0AC1E)
    disagreements = 0
    sets_checked = 0
    for i in range(1000):
        size = rng.randint(1000, 10000) if i % 100 == 0 else rng.randint(0, 60)
        span = 10000
        points = [Point(rng.randrange(span), rng.randrange(span))
                  for _ in range(size)]
        sets_checked += 1
        if width(points) != _naive_width(points):
            disagreements += 1
        arity = idx(*range(1, rng.randint(1, 3) + 1))
        tuples = [random_tuple(rng, arity, span)
                  for _ in range(min(size, 40))]
        if bound_of(tuples) != _naive_least_bound(tuples):
            disagreements += 1
        fn = random_point_fn(rng, idx(1), size=rng.randint(1, 20), span=8)
        theta = 8  # every y is below 8, so fn is thrifty by construction
        if k_table_of(fn, theta) != _naive_k_table(fn):
            disagreements += 1
    _report(capsys, 6, disagreements == 0,
            f"{sets_checked} random sets, {disagreements} disagreements")


def test_criterion_7_helper_certificates(corpus, capsys):
    bad = []
    helpers = 0
    for m in (1, 2, 3):
        for inst, result in corpus[m]:
            for (s, j), h in result.h_family.items():
                helpers += 1
                ran = set(h.graph.values())
                if any(p.x != 0 for p in ran) or width(ran) > 1:
                    bad.append((m, inst.seed, sorted(s), j))
    _report(capsys, 7, not bad,
            f"{helpers} helper maps checked, violations: {bad}")


def test_criterion_8_determinism(capsys):
    diffs = []
    for m in (1, 2):
        for seed in (0, 1, 2):
            a = generate_instance(m, 8, 4, seed)
            b = generate_instance(m, 8, 4, seed)
            if instance_dumps(a) != instance_dumps(b):
                diffs.append((m, seed, "instance"))
            rep_a, res_a = run_pipeline(a)
            rep_b, res_b = run_pipeline(b)
            if term_dumps(res_a.term) != term_dumps(res_b.term):
                diffs.append((m, seed, "term"))
            if report_dumps(rep_a) != report_dumps(rep_b):
                diffs.append((m, seed, "report"))
    _report(capsys, 8, not diffs,
            f"6 seed pairs, byte diffs: {diffs}")
