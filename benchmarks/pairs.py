"""Parent against change, by the paired protocol of the choosing-metrics guide (section 8).

    python benchmarks/pairs.py PARENT_TREE CHANGE_TREE [--workloads W ...] [--pairs 10]

Each tree is a checkout (``git clone`` / ``git archive`` of a commit). For
every workload and every seed 0..N-1 this runs *each tree's own* driver
command from ``BENCHMARK.json`` (``--seconds`` from ``run_seconds``,
``--trace 0``), one child at a time, alternating which side goes first,
and prints one row per workload x end-to-end metric: both medians with
their quartiles, the pairs the change won, and a verdict —

- ``improved``: the change won at least nine tenths of the pairs (ties
  count for neither side) and the medians are further apart than the
  parent's own inter-quartile distance;
- ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound;
- ``unresolved``: neither, but the parent's inter-quartile distance is
  wider than the bound, so "no regression" cannot be told from these
  runs (unless every run of the change beat every run of the parent);
- ``unchanged``: neither, within the bound (``identical`` when every
  pair read exactly equal, as the modelled metrics must at equal seed).

One more row per workload, ``host_refev_per_event`` (each run's
``host_refev_per_op / events_per_op``: host cost per kernel event), shows
the medians, quartiles and pairs won but no verdict; it is informational.

The bounds, workloads and run length are read from the change tree's
``BENCHMARK.json``; nothing is written. Every run made is listed on
stderr as it finishes. Exit status 1 if any row regressed, any run was
incorrect, or the change failed more operations than the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple


def run_once(tree: str, command: List[str], workload: str, seed: int, seconds: float) -> dict:
    """One driver-contract run in ``tree``; the JSON object of its last line."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{' '.join(argv)} in {tree} printed nothing:\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(parent: List[float], change: List[float], better: str, bound: float) -> Tuple[int, str]:
    """(pairs the change won, verdict) for one workload x metric."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) > 0: worse
    deltas = [sign * (c - p) for p, c in zip(parent, change)]
    wins = sum(d < 0 for d in deltas)
    if not any(deltas):
        return wins, "identical"
    p_q1, p_median, p_q3 = quartiles(parent)
    worse_by = sign * (quartiles(change)[1] - p_median)
    spread = p_q3 - p_q1
    if wins >= 0.9 * len(deltas) and -worse_by > spread:
        return wins, "improved"
    if worse_by > bound * abs(p_median):
        return wins, "regressed"
    clear = max(sign * c for c in change) < min(sign * p for p in parent)
    if spread > bound * abs(p_median) and not clear:
        return wins, "unresolved"
    return wins, "unchanged"


def measure(trees: Dict[str, str], manifest: dict, workload: str, pairs: int):
    """Run the pairs of one workload. Returns ``side -> metric -> [value
    per seed]`` and ``side -> (every run correct, attempted, failed)``."""
    names = [metric["name"] for metric in manifest["end_to_end"]]
    values: Dict[str, Dict[str, List[float]]] = {
        side: {name: [] for name in names} for side in trees}
    correct = dict.fromkeys(trees, True)
    attempted = dict.fromkeys(trees, 0)
    failed = dict.fromkeys(trees, 0)
    for seed in range(pairs):
        for side in ("parent", "change") if seed % 2 == 0 else ("change", "parent"):
            result = run_once(trees[side], manifest["command"], workload, seed,
                              manifest["run_seconds"])
            correct[side] = correct[side] and bool(result["correct"])
            attempted[side] += result["attempted"]
            failed[side] += result["failed"]
            for name in names:
                values[side][name].append(result["metrics"][name]["value"])
            print(f"[pairs] {workload} seed {seed} {side}: " + " ".join(
                f"{name}={values[side][name][-1]:.6g}" for name in names),
                file=sys.stderr, flush=True)
    return values, {side: (correct[side], attempted[side], failed[side]) for side in trees}


def row(name: str, parent: List[float], change: List[float], wins: int, tail: str) -> str:
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    return (f"  {name:20s} parent {p_median:10.6g} [{p_q1:.6g}, {p_q3:.6g}]  "
            f"change {c_median:10.6g} [{c_q1:.6g}, {c_q3:.6g}]  "
            f"won {wins}/{len(parent)}  {tail}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--workloads", nargs="+", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent_tree), "change": os.path.abspath(args.change_tree)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    declared = [w["name"] for w in manifest["workloads"]]
    workloads = args.workloads or declared
    unknown = sorted(set(workloads) - set(declared))
    if unknown:
        parser.error(f"not in BENCHMARK.json: {unknown}")

    bad = False
    for workload in workloads:
        values, totals = measure(trees, manifest, workload, args.pairs)
        print(f"{workload}: {args.pairs} pairs, --seconds {manifest['run_seconds']:g} --trace 0")
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            parent, change = values["parent"][name], values["change"][name]
            wins, verdict = judge(parent, change, metric["better"], metric["bound"])
            bad = bad or verdict == "regressed"
            print(row(name, parent, change, wins,
                      f"{verdict}  ({metric['unit']}, {metric['better']} is "
                      f"better, bound {metric['bound']:g})"))
        per_event = {side: [h / e for h, e in zip(values[side]["host_refev_per_op"],
                                                  values[side]["events_per_op"])]
                     for side in trees}
        wins = sum(c < p for p, c in zip(per_event["parent"], per_event["change"]))
        print(row("host_refev_per_event", per_event["parent"], per_event["change"], wins,
                  "(refev/event, lower is better, informational: no verdict)"))
        shares = {}
        for side, (correct, attempted, failed) in totals.items():
            print(f"  {side}: failed {failed} of {attempted} attempted, "
                  f"{'every run correct' if correct else 'SOME RUN INCORRECT'}")
            shares[side] = failed / max(attempted, 1)
            bad = bad or not correct
        bad = bad or shares["change"] > shares["parent"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
