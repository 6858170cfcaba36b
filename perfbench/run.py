"""Benchmark entry point for multipat.

    python3 perfbench/run.py --workload paper-reconstruct --seed 1 --seconds 20 --trace 0

Prints one detail line (environment, sample counts, failed fraction) and,
as the last line, the result: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, from spans recorded around calls into each module.
Exits non-zero without a result when the program's sources are missing.
"""
from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--time-setup", metavar="CONFIG",
                        help="print the scaled and raw seconds of one cold build_setup "
                             "for CONFIG and exit")
    args = parser.parse_args(argv)

    try:
        import workloads
    except ImportError as exc:
        print(f"cannot load the program under test: {exc}", file=sys.stderr)
        return 2

    if args.time_setup:
        print(*map(repr, workloads.time_setup(args.time_setup)))
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    result, detail = workloads.run(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
