"""Scenario runner + verdict artifacts.

Verdicts are pure-JSON documents with no wall-clock state, written in the
canonical form of :mod:`repro.obs.artifact` — so the same scenario + seed
produces a byte-identical file (the determinism guarantee CI relies on).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.chaos.lifecycle import Run
from repro.chaos.scenarios import SCENARIOS
from repro.obs.alerts import validate_flight_record
from repro.obs.artifact import write_json

SCHEMA = "repro.chaos/2"
#: Where ``run`` writes without ``--out``: a gitignored scratch directory,
#: so a verification run never rewrites the committed goldens in
#: ``bench/chaos`` (regenerate those with ``--out bench/chaos``).
DEFAULT_VERDICT_DIR = "bench/artifacts/chaos"


def execute(name: str, seed: int = 0, monitors: bool = True) -> Run:
    """Run one scenario to completion and return the finished
    :class:`~repro.chaos.lifecycle.Run`: :func:`verdict` turns it into
    the verdict document, :func:`write_flight_records` writes the
    snapshots its hub recorded.

    ``monitors`` toggles the online invariant monitors (repro.monitor).
    They observe, never perturb — checks, stats, and timelines are
    byte-identical either way; only the ``online`` block differs.
    """
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r} (known: {known})") from None
    run = Run(name, seed, monitors)
    run.outcome = scenario.fn(run)
    return run


def run_scenario(name: str, seed: int = 0, monitors: bool = True) -> Dict[str, Any]:
    """Execute one scenario and return its verdict document."""
    return verdict(execute(name, seed, monitors))


def verdict(run: Run) -> Dict[str, Any]:
    """The verdict document of a finished run."""
    scenario = SCENARIOS[run.name]
    result = run.outcome
    checks = [c.to_dict() for c in result.checks]
    # Sanity violations ("the faults never overlapped the load") always
    # fail the verdict; they never satisfy an expect_violations scenario —
    # only guarantee checkers can provide the expected violations.
    sanity = sum(len(c["violations"]) for c in checks
                 if c["name"] == "scenario-sanity")
    violations = sum(len(c["violations"]) for c in checks
                     if c["name"] != "scenario-sanity")
    if scenario.expect_violations:
        passed = sanity == 0 and violations > 0
    else:
        passed = sanity == 0 and violations == 0
    return {
        "schema": SCHEMA,
        "scenario": run.name,
        "description": scenario.description,
        "seed": run.seed,
        "expect_violations": scenario.expect_violations,
        "violations": violations,
        "passed": passed,
        "checks": checks,
        "timeline": result.timeline,
        "stats": result.stats,
        # schema 2 (see ScenarioResult for what each block carries):
        "recovery": result.recovery,
        "overload": result.overload,
        "online": result.online if result.online is not None
        else {"enabled": False},
    }


def online_disagrees(doc: Dict[str, Any]) -> bool:
    """A failing online verdict on a scenario that does not expect
    violations is a disagreement with the offline checkers."""
    online = doc["online"]
    return (online["enabled"] and not online["passed"]
            and not doc["expect_violations"])


def render_verdict(doc: Dict[str, Any]) -> str:
    """Human-readable rendering of one verdict: the status line, the
    online-monitor summary, then every violation that fails it."""
    status = "PASS" if doc["passed"] else "FAIL"
    detail = ""
    if doc["expect_violations"]:
        detail = f" ({doc['violations']} violations, expected >0)"
    elif doc["violations"]:
        detail = f" ({doc['violations']} violations)"
    lines = [f"[{status}] {doc['scenario']} seed={doc['seed']}{detail}"]
    online = doc["online"]
    if online["enabled"]:
        failed = [c["name"] for c in online["checks"] if not c["ok"]]
        summary = "ok" if online["passed"] else "FAIL " + ",".join(failed)
        lines.append(
            f"    online: {summary} ({online['events_seen']} events, "
            f"{len(online.get('alerts') or [])} alert(s))"
        )
        if online_disagrees(doc):
            lines += [f"    online {check['name']}: {violation}"
                      for check in online["checks"]
                      for violation in check["violations"]]
    if not doc["passed"]:
        lines += [f"    {check['name']}: {violation}"
                  for check in doc["checks"]
                  for violation in check["violations"]]
    return "\n".join(lines)


def validate_verdict(doc: Dict[str, Any]) -> None:
    problems: List[str] = []
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    if not isinstance(doc.get("scenario"), str) or not doc.get("scenario"):
        problems.append("scenario missing")
    if not isinstance(doc.get("seed"), int):
        problems.append("seed missing or not an int")
    if not isinstance(doc.get("passed"), bool):
        problems.append("passed missing or not a bool")
    if not isinstance(doc.get("checks"), list) or not doc.get("checks"):
        problems.append("checks missing or empty")
    else:
        for check in doc["checks"]:
            if not isinstance(check, dict) or "name" not in check or "violations" not in check:
                problems.append("malformed check entry")
    if not isinstance(doc.get("timeline"), list):
        problems.append("timeline missing or not a list")
    if not isinstance(doc.get("stats"), dict):
        problems.append("stats missing or not an object")
    if "recovery" not in doc:
        problems.append("recovery missing (schema 2)")
    elif doc["recovery"] is not None and not isinstance(doc["recovery"], dict):
        problems.append("recovery must be null or an object")
    if "overload" not in doc:
        problems.append("overload missing (schema 2)")
    elif doc["overload"] is not None and not isinstance(doc["overload"], dict):
        problems.append("overload must be null or an object")
    online = doc.get("online")
    if not isinstance(online, dict):
        problems.append("online missing or not an object")
    elif not isinstance(online.get("enabled"), bool):
        problems.append("online.enabled missing or not a bool")
    elif online["enabled"]:
        for key in ("checks", "passed", "events_seen"):
            if key not in online:
                problems.append(f"online.{key} missing")
        # A guarantee judged both offline and online is one monitor over
        # two data sources: the two must reach the same outcome.
        offline_ok = {c.get("name"): not c.get("violations")
                      for c in doc.get("checks") or [] if isinstance(c, dict)}
        for check in online.get("checks") or []:
            name = check.get("name")
            if name in offline_ok and offline_ok[name] != check.get("ok"):
                problems.append(
                    f"{name}: offline ok={offline_ok[name]} but online "
                    f"ok={check.get('ok')}"
                )
    if problems:
        raise ValueError("invalid verdict: " + "; ".join(problems))


def write_verdict(doc: Dict[str, Any], directory: Optional[str] = None) -> str:
    """Write ``chaos_<scenario>_seed<seed>.json``; returns the path."""
    validate_verdict(doc)
    return write_json(doc, directory or DEFAULT_VERDICT_DIR,
                      f"chaos_{doc['scenario']}_seed{doc['seed']}.json")


def write_flight_records(run: Run, directory: str) -> List[str]:
    """Write the run's flight-recorder snapshots (``repro.monitor/1``) as
    ``monitor_<scenario>_seed<seed>_alert<i>.json``; returns the paths
    (empty when no alert fired or monitors were off). The verdict carries
    each one's digest (``online.alerts[i].flight``), so these bodies are
    regenerated on demand rather than committed."""
    if run.hub is None:
        return []
    paths = []
    for i, doc in enumerate(run.hub.recorder.snapshots):
        validate_flight_record(doc)
        paths.append(write_json(
            doc, directory, f"monitor_{run.name}_seed{run.seed}_alert{i}.json"))
    return paths
