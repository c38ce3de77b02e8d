"""Python calls per operation on the perf workloads: a host-independent proxy for host cost.

    python benchmarks/pycalls.py [--workloads W ...] [--seed 0] [--by-function N]

For each of ``benchmarks.perf.workloads.WORKLOADS`` (all five by default)
this builds the workload at the seed, counts the ``sys.setprofile``
``call`` events (Python frames entered, generator resumptions included)
while the timed window of ``workload.duration`` virtual seconds runs,
and prints one line per workload: calls, operations completed, calls per
operation. With ``--by-function N`` each workload's line is followed by
the N functions entered most often, with their calls per operation.
Built-in (C) calls are not counted. At equal seed the count repeats
exactly on any machine, so it shows a change in interpreter work that
timing noise would hide, and where it is; it is informational and gates
nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def count_calls(workload, seed: int, by_code: Optional[Dict] = None):
    """(Python calls, operations completed) over one timed window; with
    ``by_code`` given, the calls are also tallied there by code object."""
    run = workload.build(seed)
    env = run.env
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1
            if by_code is not None:
                code = frame.f_code
                by_code[code] = by_code.get(code, 0) + 1

    sys.setprofile(profile)
    try:
        env.run(until=env.now + workload.duration)
    finally:
        sys.setprofile(None)
    ops = len(run.ops)
    run.finish()
    return calls, ops


def describe(code) -> str:
    """``path:line qualified.name`` of a function: the path relative to
    the repository, or the file name alone for a library's."""
    path = code.co_filename
    path = os.path.relpath(path, ROOT) if path.startswith(ROOT + os.sep) else os.path.basename(path)
    return f"{path}:{code.co_firstlineno} {getattr(code, 'co_qualname', code.co_name)}"


def main(argv=None) -> int:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from benchmarks.perf.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=list(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--by-function", type=int, default=0, metavar="N",
                        help="also print the N functions with the most calls per operation")
    args = parser.parse_args(argv)
    for name in args.workloads:
        by_code = {} if args.by_function > 0 else None
        calls, ops = count_calls(WORKLOADS[name], args.seed, by_code)
        print(f"{name:20s} {calls:10d} calls {ops:7d} ops {calls / max(ops, 1):9.1f} calls/op")
        if by_code:
            top = sorted(by_code.items(), key=lambda item: (-item[1], describe(item[0])))
            for code, count in top[:args.by_function]:
                print(f"    {count / max(ops, 1):9.1f}  {describe(code)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
