"""Python calls per operation on the perf workloads: a host-independent proxy for host cost.

    python benchmarks/pycalls.py [--workloads W ...] [--seed 0]

For each of ``benchmarks.perf.workloads.WORKLOADS`` (all five by default)
this builds the workload at the seed, counts the ``sys.setprofile``
``call`` events (Python frames entered, generator resumptions included)
while the timed window of ``workload.duration`` virtual seconds runs,
and prints one line per workload: calls, operations completed, calls per
operation. Built-in (C) calls are not counted. At equal seed the count
repeats exactly on any machine, so it shows a change in interpreter work
that timing noise would hide; it is informational and gates nothing.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def count_calls(workload, seed: int):
    """(Python calls, operations completed) over one timed window."""
    run = workload.build(seed)
    env = run.env
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        env.run(until=env.now + workload.duration)
    finally:
        sys.setprofile(None)
    ops = len(run.ops)
    run.finish()
    return calls, ops


def main(argv=None) -> int:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from benchmarks.perf.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=list(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for name in args.workloads:
        calls, ops = count_calls(WORKLOADS[name], args.seed)
        print(f"{name:20s} {calls:10d} calls {ops:7d} ops {calls / max(ops, 1):9.1f} calls/op")
    return 0


if __name__ == "__main__":
    sys.exit(main())
