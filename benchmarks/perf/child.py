"""Child-process entry: one pass of one workload (or the ladder) in a
fresh interpreter, result as one JSON line on stdout.

Run by :mod:`benchmarks.perf.ledger` with ``PYTHONHASHSEED=0``; not meant
to be invoked by hand.
"""

from __future__ import annotations

import argparse
import json
import sys

from benchmarks.perf.ladder import run_ladder
from benchmarks.perf.measure import end_to_end, per_layer
from benchmarks.perf.workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.perf.child")
    parser.add_argument("--pass", dest="which", required=True,
                        choices=["end_to_end", "per_layer", "ladder"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)
    if args.which == "ladder":
        result = run_ladder(args.seed, args.reps)
    elif args.which == "per_layer":
        result = per_layer(WORKLOADS[args.workload], args.seed, args.reps)
    else:
        result = end_to_end(WORKLOADS[args.workload], args.seed, args.seconds)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
