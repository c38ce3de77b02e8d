"""CLI: ``python -m repro.chaos``.

Commands
--------
``list``
    Show the scenario catalog.
``run SELECTOR [SELECTOR ...] [--seeds N N ...] [--out DIR]``
    Execute scenarios, write verdict artifacts, print a summary; exits
    non-zero if any scenario's verdict is not ``passed`` or its online
    monitors disagree. A selector is a scenario name, ``all``, or a tag
    (``fast``, ``recovery``, ``elastic``, ``admission``, ``tenant``); each
    selected (scenario, seed) runs once, in catalog order. The default
    seed is 0. ``--flight-dir DIR`` writes flight-recorder snapshots
    (one ``repro.monitor/1`` JSON per fired alert).
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.chaos.runner import (
    execute,
    online_disagrees,
    render_verdict,
    verdict,
    write_flight_records,
    write_verdict,
)
from repro.chaos.scenarios import SCENARIOS, TAGS, scenarios


def _cmd_list(_args) -> int:
    width = max(len(name) for name in SCENARIOS)
    for name in scenarios():
        scenario = SCENARIOS[name]
        flags = [tag for tag in TAGS if tag in scenario.tags]
        if scenario.expect_violations:
            flags.append("expects-violations")
        suffix = f"  [{', '.join(flags)}]" if flags else ""
        print(f"{name:<{width}}  {scenario.description}{suffix}")
    return 0


def _resolve(selectors: List[str]) -> List[str]:
    """The scenarios any selector names, each once, in catalog order."""
    for selector in selectors:
        if selector not in ("all", *TAGS, *SCENARIOS):
            known = ", ".join(scenarios())
            raise SystemExit(
                f"unknown scenario {selector!r} "
                f"(known: {known}, all, {', '.join(TAGS)})"
            )
    return [name for name in scenarios()
            if "all" in selectors or name in selectors
            or SCENARIOS[name].tags & set(selectors)]


def _cmd_run(args) -> int:
    names, seeds = _resolve(args.selectors), args.seeds
    failures = 0
    for name in names:
        for seed in seeds:
            run = execute(name, seed=seed)
            doc = verdict(run)
            path = write_verdict(doc, directory=args.out)
            status, *rest = render_verdict(doc).split("\n")
            print(f"{status} -> {path}", *rest, sep="\n")
            if args.flight_dir:
                for fpath in write_flight_records(run, args.flight_dir):
                    print(f"    flight record -> {fpath}")
            # Fail the run loudly on an online/offline disagreement, and
            # (separately) on a verdict that did not pass.
            failures += online_disagrees(doc) + (not doc["passed"])
    print(f"{'FAILED' if failures else 'OK'}: "
          f"{len(names) * len(seeds) - failures}/{len(names) * len(seeds)} verdicts passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.chaos",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="show the scenario catalog")
    run = sub.add_parser("run", help="run scenarios and write verdicts")
    run.add_argument("selectors", nargs="+", metavar="SELECTOR",
                     help="scenario name, 'all', 'fast', 'recovery', "
                          "'elastic', 'admission', or 'tenant'")
    run.add_argument("--seeds", type=int, nargs="+", default=[0],
                     help="run each scenario once per seed (default 0)")
    run.add_argument("--out", default=None,
                     help="verdict directory (default bench/artifacts/chaos; "
                          "the committed goldens are bench/chaos)")
    run.add_argument("--flight-dir", default=None, metavar="DIR",
                     help="write flight-recorder snapshots (repro.monitor/1) here")
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
