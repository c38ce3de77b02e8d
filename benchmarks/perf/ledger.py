"""Assemble ledger entries from child processes, and compare two of them.

Every pass of every workload runs in its own fresh child interpreter
(``PYTHONHASHSEED=0``), one at a time, so no workload inherits another's
heap, caches or garbage, and ``peak_rss_mb`` is the workload's own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, Iterable, List, Optional

from benchmarks.perf.catalogue import END_TO_END, RUN_SECONDS, units

SCHEMA = "repro.perf/1"
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
#: A child that has not finished by then is killed: the contract allows
#: a run 180 s in all, and a ``--trace 1`` run has two children.
CHILD_TIMEOUT = 85
#: Timed repetitions per rung / per traced pass: short when riding along
#: a single ``--trace 1`` run, longer for a committed ledger entry.
QUICK_REPS, FULL_REPS = 2, 6


def spawn(which: str, seed: int, workload: Optional[str] = None, **options) -> dict:
    """Run one pass in a child interpreter and return its JSON result."""
    command = [sys.executable, "-m", "benchmarks.perf.child", "--pass", which, "--seed", str(seed)]
    if workload is not None:
        command += ["--workload", workload]
    for key, value in options.items():
        command += [f"--{key}", str(value)]
    path = os.pathsep.join([ROOT, os.path.join(ROOT, "src")])
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=path)
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def with_units(metrics: Dict[str, float]) -> Dict[str, dict]:
    unit_of = units()
    return {name: {"value": value, "unit": unit_of[name]} for name, value in metrics.items()}


def contract_run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One driver-contract run: end-to-end metrics untraced, or every
    per-layer metric (traced pass, counters, ladder) with ``trace``."""
    if not trace:
        result = spawn("end_to_end", seed, workload, seconds=seconds)
    else:
        result = spawn("per_layer", seed, workload, reps=QUICK_REPS + 1)
        ladder = spawn("ladder", seed, reps=QUICK_REPS)
        result["metrics"].update(ladder["metrics"])
        result["attempted"] += ladder["attempted"]
        result["failed"] += ladder["failed"]
        result["info"]["messages"] += ladder["messages"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": with_units(result["metrics"]),
        "info": result["info"],
    }


def full_ledger(seed: int, workloads: Iterable[str], ladder: bool,
                log=lambda line: None) -> dict:
    """A complete ledger entry: both passes of each workload, then the
    ladder once."""
    entry = {"schema": SCHEMA, "seed": seed, "claim": None, "workloads": {}}
    for name in workloads:
        log(f"{name}: end-to-end pass ({RUN_SECONDS} s of timed repetitions)")
        untraced = spawn("end_to_end", seed, name, seconds=RUN_SECONDS)
        log(f"{name}: counted and traced pass")
        traced = spawn("per_layer", seed, name, reps=FULL_REPS)
        attempted = untraced["attempted"] + traced["attempted"]
        failed = untraced["failed"] + traced["failed"]
        end_to_end = with_units(untraced["metrics"])
        for metric, spread in untraced["info"].pop("spread").items():
            end_to_end[metric]["spread"] = spread
        entry["workloads"][name] = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "end_to_end": end_to_end,
            "per_layer": with_units(traced["metrics"]),
            "info": untraced["info"],
            "traced_info": traced["info"],
        }
    if ladder:
        log("ladder")
        rungs = spawn("ladder", seed, reps=FULL_REPS)
        entry["ladder"] = {
            "correct": rungs["failed"] == 0, "attempted": rungs["attempted"],
            "failed": rungs["failed"],
            "messages": rungs["messages"], "metrics": with_units(rungs["metrics"]),
        }
    entry["correct"] = all(w["correct"] for w in entry["workloads"].values()) and (
        not ladder or entry["ladder"]["correct"])
    return entry


def render(entry: dict) -> List[str]:
    """Every metric of a ledger entry by name, with its unit."""
    lines = []
    for name, workload in entry["workloads"].items():
        info = workload["info"]
        lines.append(
            f"== {name}: {'ok' if workload['correct'] else 'FAILED'}, {workload['failed']} failed "
            f"of {workload['attempted']} attempted, {info['latency_samples']} latency samples, "
            f"{len(info['repetitions'])} repetitions, virt_digest {info['virt_digest'][:16]}")
        lines += [f"   note: {note}" for note in info["notes"]]
        lines += [f"   FAILED: {message}" for message in info["messages"]]
        for section in ("end_to_end", "per_layer"):
            for metric, cell in workload[section].items():
                lines.append(f"{name:20s} {metric:46s} {cell['value']:16.6g} {cell['unit']}")
    ladder = entry.get("ladder", {"messages": [], "metrics": {}})
    lines += [f"   FAILED: {message}" for message in ladder["messages"]]
    for metric, cell in ladder["metrics"].items():
        lines.append(f"{'ladder':20s} {metric:46s} {cell['value']:16.6g} {cell['unit']}")
    return lines


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _verdict(metric, base: dict, new: dict) -> str:
    change = new["value"] - base["value"]
    if abs(change) < metric.floor:
        return "unchanged"
    if max(base.get("spread", 0.0), new.get("spread", 0.0)) > metric.bound:
        return "unresolved"
    worse = change if metric.better == "lower" else -change
    if worse > metric.bound * base["value"]:
        return "regressed"
    if -worse > metric.bound * base["value"]:
        return "improved"
    return "unchanged"


def compare(base: dict, new: dict) -> List[dict]:
    """One row per workload x end-to-end metric (plus ``failed_share``,
    whose bound is 0 absolute), ``new`` judged against ``base`` by the
    catalogue's bounds. A metric whose own repetition spread exceeds its
    bound is ``unresolved``, never ``unchanged``."""
    rows = []
    for name in base["workloads"]:
        if name not in new["workloads"]:
            continue
        a, b = base["workloads"][name], new["workloads"][name]
        for metric in END_TO_END:
            cell_a, cell_b = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
            rows.append({
                "workload": name, "metric": metric.name, "unit": metric.unit,
                "base": cell_a["value"], "new": cell_b["value"],
                "ratio": cell_b["value"] / cell_a["value"], "bound": metric.bound,
                "verdict": _verdict(metric, cell_a, cell_b),
            })
        shares = a["failed_share"], b["failed_share"]
        rows.append({
            "workload": name, "metric": "failed_share", "unit": "share",
            "base": shares[0], "new": shares[1], "ratio": None, "bound": 0.0,
            "verdict": "regressed" if shares[1] > shares[0] else
                       "improved" if shares[1] < shares[0] else "unchanged",
        })
    return rows


def exact_differences(base: dict, new: dict) -> List[str]:
    """Names of the seed-exact values that differ between two entries of
    the same seed: the digest, events_per_op, virt_*, every calls_per_op
    and every ladder events_per_op."""
    differing = []
    for name in base["workloads"]:
        if name not in new["workloads"]:
            continue
        a, b = base["workloads"][name], new["workloads"][name]
        if a["info"]["virt_digest"] != b["info"]["virt_digest"]:
            differing.append(f"{name} virt_digest")
        exact = [m for m in a["end_to_end"] if m == "events_per_op" or m.startswith("virt_")]
        differing += [f"{name} {m}" for m in exact
                      if a["end_to_end"][m]["value"] != b["end_to_end"][m]["value"]]
        differing += [f"{name} {m}" for m in a["per_layer"] if m.startswith("calls_per_op.")
                      and a["per_layer"][m]["value"] != b["per_layer"][m]["value"]]
    ladder_a = base.get("ladder", {}).get("metrics", {})
    ladder_b = new.get("ladder", {}).get("metrics", {})
    differing += [f"ladder {m}" for m in ladder_a if m.endswith("events_per_op")
                  and m in ladder_b and ladder_a[m]["value"] != ladder_b[m]["value"]]
    return differing
