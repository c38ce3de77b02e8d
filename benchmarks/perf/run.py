"""Driver-contract entry point (the ``command`` of ``BENCHMARK.json``).

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

Runs one workload in a fresh child interpreter and prints, as the last
line of stdout, one JSON object with exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0``, every per-layer metric (traced pass, counters, ladder)
with ``--trace 1``. Exits non-zero if the simulator sources are missing
or a correctness check failed.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(argv=None) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"benchmarks/perf: no simulator sources at {src}/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, src]
    from benchmarks.perf.ledger import contract_run
    from benchmarks.perf.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    result = contract_run(args.workload, args.seed, args.seconds, bool(args.trace))
    info = result.pop("info")
    for line in info["notes"] + [f"FAILED: {message}" for message in info["messages"]]:
        print(line)
    for name, cell in result["metrics"].items():
        print(f"{args.workload:20s} {name:46s} {cell['value']:16.6g} {cell['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
