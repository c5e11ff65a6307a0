"""Pipeline orchestration: run the full synthesis on an instance and emit a
self-contained verification report.

The choice stages run once: admissibility is read off their outcome, and
synthesis is completed from their products.

The report re-checks everything from the produced artifacts alone: exact
term equality over dom(g), the decomposition contracts, the helper range
certificates, and the selector width bounds (brute force, with derived
deterministic factor families).
"""
from __future__ import annotations

import functools
import random
import time
from typing import Optional

from .analysis import Checklist, width
from .core import PartialFn, eval_term, full_index
from .decompose import verify_decomposition
from .instances import Instance, check_admissibility
from .synth import (
    LineFactor,
    StageError,
    SynthesisResult,
    complete_synthesis,
    main_lemma_certify,
    pstar,
    verify_Q_in_CI,
)

FACTOR_FAMILY_COUNT = 3
WIDE_PRODUCT_COUNT = 2
_FACTOR_SALT = 0x51C10  # decorrelates factor sampling from instance rng


def derive_factor_rng(seed: int) -> random.Random:
    return random.Random(seed ^ _FACTOR_SALT)


def random_width1_factors(q_table: PartialFn, m: int, rng: random.Random,
                          ceiling: int, target_width: int = 1) -> dict:
    """A factor family biased toward the selector's own points, sampled on
    first read.

    One `LineFactor` per input index and per (S, j) pair.  A line in
    [0, ceiling) is sampled the first time it is read and holds 1 to
    ``target_width`` columns, each drawn with probability 0.7 from the
    columns occurring on that line in the selector's domain (so the width
    checks are not all vacuous) and otherwise uniformly below the ceiling;
    other lines hold none.  The draws follow the order of first reads.
    """
    factors = {}
    for slot, key in enumerate(pstar(full_index(m)).factor_keys, 1):
        occurring: dict = {}
        for uv in q_table.graph:
            p = uv[slot]
            occurring.setdefault(p.y, set()).add(p.x)
        factors[key] = LineFactor(sample=functools.partial(
            _sample_line, occurring, rng, ceiling, target_width))
    return factors


def _sample_line(occurring: dict, rng: random.Random, ceiling: int,
                 target_width: int, n: int) -> frozenset:
    if not 0 <= n < ceiling:
        return frozenset()
    cols = sorted(occurring.get(n, ()))
    chosen: set = set()
    for _ in range(target_width):
        if cols and rng.random() < 0.7:
            chosen.add(rng.choice(cols))
        else:
            chosen.add(rng.randrange(ceiling))
    return frozenset(chosen)


def run_pipeline(inst: Instance) -> tuple:
    """Execute the full pipeline on an instance and verify every contract.

    Returns the report and the synthesis result (None when synthesis did
    not run or failed).
    """
    t0 = time.perf_counter()
    checks = Checklist()
    result: Optional[SynthesisResult] = None

    adm = check_admissibility(inst)
    checks.add("admissibility", adm["passed"], adm["detail"])

    stage_error = None
    if adm["passed"]:
        try:
            result = complete_synthesis(inst.g, adm["normalized"],
                                        adm["trace"])
        except StageError as exc:
            stage_error = exc
            checks.add(f"stage:{exc.stage}", False, str(exc.cause))

    if result is not None:
        _verify_synthesis(inst, result, checks)

    report = {
        "seed": inst.seed,
        "m": inst.m,
        "horizon": inst.horizon,
        "theta": inst.theta,
        "profile": inst.profile,
        "domain_size": len(inst.g),
        "checks": checks.checks,
        "passed": checks.passed,
        "timing": round(time.perf_counter() - t0, 6),
    }
    if result is not None:
        report["term_stats"] = {
            "size": result.term.size(),
            "depth": result.term.depth(),
            "atoms": len(result.term.env),
            "witness_atoms": len(result.term.witness_atoms()),
            "q_domain": len(result.q),
        }
    if stage_error is not None:
        report["stage_error"] = {
            "stage": stage_error.stage, "error": str(stage_error.cause),
        }
    return report, result


def _verify_synthesis(inst: Instance, result: SynthesisResult,
                      checks: Checklist) -> None:
    m = inst.m

    dec = verify_decomposition(inst.g, result.trace)
    bad = [c["name"] for c in dec["checks"] if not c["passed"]]
    checks.add("decomposition contracts", dec["passed"], ", ".join(bad))

    pair = verify_pair(inst, result.term)
    checks.add("term equality on dom(g)", pair["passed"],
               "" if pair["passed"]
               else f"{pair['mismatched']} mismatching tuples")

    bad_helpers = []
    for (s, j), h in sorted(result.h_family.items()):
        ran = {p for p in h.graph.values()}
        if any(p.x != 0 for p in ran) or width(ran) > 1:
            bad_helpers.append((sorted(s), j))
    checks.add("helper range certificates", not bad_helpers,
               str(bad_helpers) if bad_helpers else "")

    # Factor lines are drawn on first read: each family's width check
    # reads the product in table order, and its certificates then draw
    # only their K-chain lines.
    rng = derive_factor_rng(inst.seed)
    width_details, uniq_details = [], []
    for fam in range(FACTOR_FAMILY_COUNT):
        factors = random_width1_factors(result.q_table, m, rng, inst.ceiling)
        verdict = verify_Q_in_CI(result.q_table, factors, 1, m)
        if not verdict.passed:
            width_details.append(f"family {fam}: width {verdict.observed} "
                                 f"> {verdict.bound}")
        for cert in main_lemma_certify(result.q_table, result.k_tables,
                                       factors, m):
            if not cert.passed:
                uniq_details.append(f"family {fam} line {cert.line} "
                                    f"perm {cert.perm}: {cert.detail}")
    checks.add("selector width bound (m!)", not width_details,
               "; ".join(width_details))
    checks.add("per-line uniqueness", not uniq_details,
               "; ".join(uniq_details))

    wide_details = []
    for fam in range(WIDE_PRODUCT_COUNT):
        factors = random_width1_factors(
            result.q_table, m, rng, inst.ceiling, target_width=2)
        verdict = verify_Q_in_CI(result.q_table, factors, 2, m)
        if not verdict.passed:
            wide_details.append(f"family {fam}: width {verdict.observed} "
                                f"> {verdict.bound}")
    checks.add("selector width bound (width-2 products)", not wide_details,
               "; ".join(wide_details))


def verify_pair(inst: Instance, term) -> dict:
    """Re-verify a serialized (instance, term) pair without the trace."""
    mismatches = [
        u for u in sorted(inst.g.domain())
        if eval_term(term, u) != inst.g.graph[u]
    ]
    return {
        "passed": not mismatches,
        "checked": len(inst.g),
        "mismatched": len(mismatches),
        "mismatches": [str(u) for u in mismatches[:5]],
    }
