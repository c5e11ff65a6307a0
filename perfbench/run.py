"""Run one workload of the clonecover benchmark and print its metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout that holds this file.
Earlier stdout lines are notes (round counts, canonical-byte digests,
latency percentiles); the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones and
writes the spans of the last traced round under ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / harness.PACKAGE / "__init__.py").is_file():
        print(f"no {harness.PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    baseline = frozenset(sys.modules)

    spans_out = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json.gz"
    result = harness.run(harness.WORKLOADS[args.workload], args.seed,
                         args.seconds, bool(args.trace), baseline,
                         spans_out if args.trace else None)
    for note in result.notes:
        print(note)
    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    print(harness.result_json(result, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
