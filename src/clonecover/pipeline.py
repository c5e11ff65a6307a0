"""Pipeline orchestration: run the full synthesis on an instance and emit a
self-contained verification report.

The choice stages run once: admissibility is read off their outcome, and
synthesis is completed from the decomposition trace and the horizon.

The report re-checks everything from the produced artifacts alone: exact
term equality over dom(g), the decomposition contracts, the helper range
certificates, and the selector width bounds: one worst-case search over
width-1 products, from which the width-2 bound follows, and the uniqueness
certificates on the width-1 family that reaches the worst case.
"""
from __future__ import annotations

import time
from operator import ne

from .analysis import Checklist
from .core import WITNESS_ATOM, compile_term
from .decompose import check_contracts
from .instances import Instance, check_admissibility
from .synth import (
    StageError,
    SynthesisResult,
    complete_synthesis,
    main_lemma_certify,
    spanned_family,
    verify_Q_in_CI,
)


def run_pipeline(inst: Instance) -> tuple:
    """Execute the full pipeline on an instance and verify every contract.

    Returns the report and the synthesis result (None when synthesis did
    not run or failed).
    """
    t0 = time.perf_counter()
    checks = Checklist()
    report = {
        "seed": inst.seed,
        "m": inst.m,
        "horizon": inst.horizon,
        "theta": inst.theta,
        "profile": inst.profile,
        "domain_size": len(inst.g),
        "checks": checks.checks,
    }
    result = None
    adm = check_admissibility(inst)
    checks.add("admissibility", adm["passed"], adm["detail"])
    if adm["passed"]:
        try:
            result = complete_synthesis(inst.g, inst.horizon, adm["trace"])
        except StageError as exc:
            exc.check(checks)
        else:
            _verify_synthesis(inst, result, checks)
            report["term_stats"] = {
                "size": result.term.size(),
                "depth": result.term.depth(),
                "atoms": len(result.term.env),
                "witness_atoms": sum(b.kind == WITNESS_ATOM
                                     for b in result.term.env.values()),
                "q_domain": len(result.trace.g_prime),
            }
    report["passed"] = checks.passed
    report["timing"] = round(time.perf_counter() - t0, 6)
    return report, result


def _verify_synthesis(inst: Instance, result: SynthesisResult,
                      checks: Checklist) -> None:
    check_contracts(inst.g, result.trace, checks)
    check_term(inst, result.term, checks)

    # A range on the x = 0 row has one point per line, so width 1.
    bad_helpers = [(sorted(s), j) for (s, j), h in result.h_family.items()
                   if any(p.x for p in h.graph.values())]
    checks.add("helper range certificates", not bad_helpers, bad_helpers)

    # One exact worst case over every width-1 product, whose bound implies
    # the width-2 one (see verify_Q_in_CI); the certificates read the
    # width-1 family the worst entries span.
    narrow = verify_Q_in_CI(result.q_table, inst.m)
    narrow_ok = narrow.observed <= narrow.bound
    checks.add("selector width bound (m!)", narrow_ok, f"line {narrow.line}: "
               f"width {narrow.observed} > {narrow.bound}")
    factors = spanned_family(narrow.entries, inst.m)
    certs = main_lemma_certify(result.q_table, factors, inst.m)
    uniq_details = [f"line {cert.line} perm {cert.perm}: {cert.detail}"
                    for cert in certs if cert.detail]
    # The worst-case entries lie in the family they span, so each must
    # qualify in some certificate; a certifier that admits no entry makes
    # no certificate, and no failing one.
    qualified = {uv for cert in certs for uv in cert.qualifying}
    uniq_details += [f"worst-case entry {uv!r} qualifies in no certificate"
                     for uv in narrow.entries if uv not in qualified]
    checks.add("per-line uniqueness", not uniq_details,
               "; ".join(uniq_details))
    checks.add("selector width bound (width-2 products)", narrow_ok,
               "not derived: width-1 bound failed")


def check_term(inst: Instance, term, checks: Checklist) -> None:
    """Add `verify_pair`'s verdict as the "term equality on dom(g)" check."""
    pair = verify_pair(inst, term)
    checks.add("term equality on dom(g)", pair["passed"],
               f"{pair['mismatched']} mismatching tuples")


def verify_pair(inst: Instance, term) -> dict:
    """Re-verify a serialized (instance, term) pair without the trace: the
    term, compiled once and evaluated in one call over all of dom(g), must
    give g's value at every tuple."""
    graph = inst.g.graph
    values = compile_term(term)(list(graph))
    mismatched = sum(map(ne, values, graph.values()))
    return {"passed": not mismatched, "mismatched": mismatched}
