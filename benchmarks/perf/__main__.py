"""``python -m benchmarks.perf`` (with ``PYTHONPATH=src``).

    run      [--seed N] [--workload W ...] [--no-ladder] [--out FILE]
    compare  BASE.json NEW.json
    manifest             print the BENCHMARK.json generated from the catalogue
"""

from __future__ import annotations

import argparse
import json
import sys

from benchmarks.perf.catalogue import DEFAULT_SEED, manifest
from benchmarks.perf.ledger import compare, exact_differences, full_ledger, render
from benchmarks.perf.workloads import WORKLOADS


def _run(args) -> int:
    entry = full_ledger(
        args.seed, args.workload or list(WORKLOADS), not args.no_ladder,
        log=lambda line: print(f"[perf] {line}", file=sys.stderr, flush=True),
    )
    print("\n".join(render(entry)))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(entry, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if entry["correct"] else 1


def _compare(args) -> int:
    with open(args.base) as fh:
        base = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    rows = compare(base, new)
    for row in rows:
        ratio = "" if row["ratio"] is None else f"x{row['ratio']:.4f}"
        print(f"{row['workload']:20s} {row['metric']:18s} {row['verdict']:10s} "
              f"{row['new']:14.6g} {ratio:>9s} of base {row['base']:.6g} {row['unit']} "
              f"(bound {row['bound']:g})")
    if base["seed"] == new["seed"]:
        differing = exact_differences(base, new)
        print(f"seed-exact values (digest, events, virt_*, calls_per_op): "
              f"{'all identical' if not differing else 'DIFFER: ' + ', '.join(differing)}")
    else:
        print(f"seeds differ ({base['seed']} vs {new['seed']}): seed-exact values not compared")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure every workload and the ladder")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--workload", action="append", choices=list(WORKLOADS))
    run.add_argument("--no-ladder", action="store_true")
    run.add_argument("--out", help="write the ledger entry (JSON) here")
    run.set_defaults(handler=_run)
    cmp_ = commands.add_parser("compare", help="judge NEW against BASE by the bounds")
    cmp_.add_argument("base")
    cmp_.add_argument("new")
    cmp_.set_defaults(handler=_compare)
    commands.add_parser("manifest").set_defaults(
        handler=lambda args: print(json.dumps(manifest(), indent=2)) or 0)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
