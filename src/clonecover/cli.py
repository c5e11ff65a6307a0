"""Command-line workbench: generate instances, check admissibility, run the
decomposition or the full synthesis, and verify serialized artifacts.

Each command reads its instance from `--instance` or generates it from
`--seed`, `--m`, `--horizon`, `--theta` and `--profile`, never both; only
`gen`, `synth` and `demo` write an artifact, to `--out` or stdout.

Every verdict is one ``PASS|FAIL  <check name>  (<detail>)`` line, on
stdout, or on stderr for `synth` and `demo`, whose stdout is the artifact.
Exit status is 0 exactly when every check passes, 1 when one fails, and 2
on a usage error: a malformed input document, an input file that cannot
be read, generation parameters no profile supports, or a generation flag
given with `--instance`.  A usage error prints one line on stderr.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import serialize
from .analysis import Checklist
from .decompose import check_admissible, check_contracts
from .instances import (
    PROFILES,
    ProfileError,
    check_admissibility,
    default_theta,
    generate_instance,
)
from .pipeline import check_term, run_pipeline
from .synth import StageError, end_to_end_synthesize

# generate_instance's parameters and defaults (theta: ceil(N/2)); as flags
# they default to absent, so a command can tell which ones were given
_GENERATION = {"m": 2, "horizon": 16, "theta": None, "seed": 0,
               "profile": "mixed"}


class UsageError(Exception):
    """A combination of command-line values the program cannot use."""


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, help="instance seed (default: 0)")
    p.add_argument("--m", type=int, help="arity of g, at least 1 (default: 2)")
    p.add_argument("--horizon", type=int,
                   help="normalization horizon N (default: 16)")
    p.add_argument("--theta", type=int,
                   help="thrifty/wasteful threshold (default: ceil(N/2))")
    p.add_argument("--profile", choices=PROFILES,
                   help="instance profile (default: mixed)")
    p.add_argument("--instance", type=Path, default=None,
                   help="read the instance from this file instead of "
                        "generating; takes no generation flag")


def _load_or_generate(args):
    given = [f"--{name}" for name in _GENERATION if hasattr(args, name)]
    if args.instance is not None:
        if given:
            raise UsageError("--instance cannot be combined with "
                             + ", ".join(given))
        return serialize.instance_loads(args.instance.read_bytes())
    params = {k: getattr(args, k, v) for k, v in _GENERATION.items()}
    if params["theta"] is None:
        params["theta"] = default_theta(params["horizon"])
    return generate_instance(**params)


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
    adm = check_admissibility(_load_or_generate(args))
    return _print_checks(Checklist(adm["checks"]), sys.stdout)


def cmd_decompose(args) -> int:
    inst = _load_or_generate(args)
    checks = Checklist()
    trace = check_admissible(inst.g, inst.theta, checks)
    if trace is not None:
        for stage in trace.stages:
            print(f"S={sorted(stage.s)}: |g'|={len(stage.g_prime)} "
                  f"rerouted={len(stage.moved)}")
        check_contracts(inst.g, trace, checks)
    return _print_checks(checks, sys.stdout)


def cmd_synth(args) -> int:
    inst = _load_or_generate(args)
    checks = Checklist()
    try:
        term = end_to_end_synthesize(inst.g, inst.f, inst.theta, inst.horizon,
                                     unary_candidates=inst.candidates).term
    except StageError as exc:
        exc.check(checks)
    else:
        _emit(serialize.term_dumps(term), args.out)
        _print_term(term)
        check_term(inst, term, checks)
    return _print_checks(checks, sys.stderr)


def cmd_verify(args) -> int:
    inst = _load_or_generate(args)
    term = serialize.term_loads(args.term.read_bytes())
    if term.arity != inst.g.arity:
        raise serialize.ParseError(
            f"term: arity {serialize._shown(sorted(term.arity))} does not "
            "match the instance's arity "
            f"{serialize._shown(sorted(inst.g.arity))}")
    checks = Checklist()
    check_term(inst, term, checks)
    return _print_checks(checks, sys.stdout)


def cmd_demo(args) -> int:
    inst = _load_or_generate(args)
    report, result = run_pipeline(inst)
    _emit(serialize.report_dumps(report), args.out)
    if result is not None:
        _print_term(result.term)
    return _print_checks(Checklist(report["checks"]), sys.stderr)


def _print_term(term) -> None:
    print(f"term: size={term.size()} depth={term.depth()} "
          f"atoms={len(term.env)}", file=sys.stderr)


def _print_checks(checks: Checklist, stream) -> int:
    """Print each check as ``PASS|FAIL  <name>  (<detail>)``, the detail
    only when there is one; the exit status, 0 exactly when all pass."""
    for c in checks.checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}"
              + (f"  ({c['detail']})" if c["detail"] else ""), file=stream)
    return 0 if checks.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clonecover",
        description="Finite-fragment decomposition and term-synthesis workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, extra in (
        ("gen", cmd_gen, "--out"),
        ("check", cmd_check, None),
        ("decompose", cmd_decompose, None),
        ("synth", cmd_synth, "--out"),
        ("verify", cmd_verify, "--term"),
        ("demo", cmd_demo, "--out"),
    ):
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        _add_common(p)
        if extra == "--out":
            p.add_argument("--out", type=Path, default=None,
                           help="write the main artifact to this file")
        elif extra == "--term":
            p.add_argument("--term", type=Path, required=True,
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
