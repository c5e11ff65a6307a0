"""Command-line workbench: generate instances, check admissibility, run the
decomposition or the full synthesis, and verify serialized artifacts.

Exit status is 0 exactly when the requested check or report passes, 1 when
it fails, and 2 on a usage error: a malformed input document, an input file
that cannot be read, generation parameters no profile supports, or a
non-integer $CLONECOVER_SEED.  A usage error prints one line on stderr.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import serialize
from .decompose import (
    AdmissibilityError,
    hereditary_decompose,
    verify_decomposition,
)
from .instances import (
    ProfileError,
    check_admissibility,
    default_theta,
    generate_instance,
)
from .pipeline import run_pipeline, verify_pair
from .synth import StageError, end_to_end_synthesize

ENV_SEED = "CLONECOVER_SEED"


class UsageError(Exception):
    """A command-line or environment value the program cannot use."""


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help=f"instance seed (default: ${ENV_SEED} or 0)")
    p.add_argument("--m", type=int, default=2, help="arity of g (at least 1)")
    p.add_argument("--horizon", type=int, default=16,
                   help="normalization horizon N")
    p.add_argument("--theta", type=int, default=None,
                   help="thrifty/wasteful threshold (default: ceil(N/2))")
    p.add_argument("--profile", default="mixed",
                   choices=("mixed", "all-thrifty", "mary-witness"))
    p.add_argument("--instance", type=Path, default=None,
                   help="read the instance from this file instead of generating")
    p.add_argument("--out", type=Path, default=None,
                   help="write the main artifact to this file")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(ENV_SEED, "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"${ENV_SEED} is not an integer: {raw!r}") from None


def _load_or_generate(args):
    if args.instance is not None:
        return serialize.instance_loads(args.instance.read_bytes())
    theta = args.theta if args.theta is not None else default_theta(args.horizon)
    return generate_instance(args.m, args.horizon, theta,
                             _resolve_seed(args), args.profile)


def _emit(data: bytes, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(data.decode())
    else:
        out.write_bytes(data)


def cmd_gen(args) -> int:
    inst = _load_or_generate(args)
    _emit(serialize.instance_dumps(inst), args.out)
    return 0


def cmd_check(args) -> int:
    inst = _load_or_generate(args)
    report = check_admissibility(inst)
    _print_checks(report["checks"], sys.stdout)
    return 0 if report["passed"] else 1


def cmd_decompose(args) -> int:
    inst = _load_or_generate(args)
    try:
        trace = hereditary_decompose(inst.g, inst.theta)
    except AdmissibilityError as exc:
        print(f"decomposition FAIL: {exc}")
        return 1
    report = verify_decomposition(inst.g, trace)
    for stage in trace.stages:
        print(f"S={sorted(stage.s)}: |g'|={len(stage.g_prime)} "
              f"rerouted={len(stage.moved)}")
    print(f"decomposition {'PASS' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


def cmd_synth(args) -> int:
    inst = _load_or_generate(args)
    try:
        result = end_to_end_synthesize(
            inst.g, inst.f, inst.theta, inst.horizon,
            unary_candidates=inst.candidates,
        )
    except StageError as exc:
        print(f"synthesis FAIL: {exc}")
        return 1
    _emit(serialize.term_dumps(result.term), args.out)
    pair = verify_pair(inst, result.term)
    print(f"term size={result.term.size()} depth={result.term.depth()} "
          f"atoms={len(result.term.env)}", file=sys.stderr)
    print(f"equality on dom(g): {'PASS' if pair['passed'] else 'FAIL'}",
          file=sys.stderr)
    return 0 if pair["passed"] else 1


def cmd_verify(args) -> int:
    inst = _load_or_generate(args)
    if args.term is not None:
        term = serialize.term_loads(args.term.read_bytes())
        if term.arity != inst.g.arity:
            raise serialize.ParseError(
                f"term: arity {sorted(term.arity)} does not match the "
                f"instance's arity {sorted(inst.g.arity)}")
        pair = verify_pair(inst, term)
        print(f"equality on dom(g): {'PASS' if pair['passed'] else 'FAIL'} "
              f"({pair['checked']} tuples)")
        return 0 if pair["passed"] else 1
    report, _ = run_pipeline(inst)
    _print_report(report)
    if args.out is not None:
        args.out.write_bytes(serialize.report_dumps(report))
    return 0 if report["passed"] else 1


def cmd_demo(args) -> int:
    inst = _load_or_generate(args)
    report, _ = run_pipeline(inst)
    _print_report(report)
    _emit(serialize.report_dumps(report), args.out)
    return 0 if report["passed"] else 1


def _print_checks(checks: list, stream) -> None:
    for c in checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}"
              + (f"  ({c['detail']})" if c["detail"] else ""), file=stream)


def _print_report(report: dict) -> None:
    _print_checks(report["checks"], sys.stderr)
    stats = report.get("term_stats")
    if stats:
        print(f"term: size={stats['size']} depth={stats['depth']} "
              f"atoms={stats['atoms']}", file=sys.stderr)
    print(f"overall: {'PASS' if report['passed'] else 'FAIL'} "
          f"({report['timing']}s)", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clonecover",
        description="Finite-fragment decomposition and term-synthesis workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, extra in (
        ("gen", cmd_gen, None),
        ("check", cmd_check, None),
        ("decompose", cmd_decompose, None),
        ("synth", cmd_synth, None),
        ("verify", cmd_verify, "term"),
        ("demo", cmd_demo, None),
    ):
        p = sub.add_parser(name)
        _add_common(p)
        if extra == "term":
            p.add_argument("--term", type=Path, default=None,
                           help="verify this serialized term against the instance")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (serialize.ParseError, ProfileError, OSError,
            UsageError) as exc:
        print(f"clonecover: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
