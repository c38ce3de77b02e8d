"""Online monitor verdicts across the full scenario catalog.

Four properties per committed scenario, all from the same pair of runs
(the session-wide ``seed0`` cache in ``tests/conftest.py``):

- the seed-0 verdict (monitors on) is byte-identical to its committed
  golden in ``bench/chaos/`` — the determinism guarantee CI relies on;
- its checks follow ``CHECK_ORDER``, with ``metalog-consistency`` among
  them and ``scenario-sanity`` last;
- the online monitors agree with the offline checkers, field for field,
  on every guarantee both sides check (the offline checkers replay
  recorded state through the same monitors);
- monitors observe, never perturb: the verdict minus its ``online``
  block is byte-identical with monitors on or off.
"""

import json
import os

import pytest

from repro.chaos.lifecycle import CHECK_ORDER
from repro.chaos.runner import validate_verdict
from repro.chaos.scenarios import SCENARIOS, scenarios
from repro.obs.artifact import canonical_json

pytestmark = [pytest.mark.chaos, pytest.mark.monitor]

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "bench", "chaos")

#: Guarantees checked both offline (checkers.*) and online (monitor.*),
#: by the name shared between the two verdict blocks.
SHARED_CHECKS = ("metalog-consistency", "queue-delivery", "exactly-once-effects")

#: Checks only the online monitors make (no offline counterpart).
ONLINE_ONLY = ("read-freshness", "record-reconciliation")


@pytest.mark.parametrize("name", scenarios())
def test_seed0_verdict_matches_committed_golden(name, seed0):
    golden = os.path.join(GOLDEN_DIR, f"chaos_{name}_seed0.json")
    with open(golden) as handle:
        committed = handle.read()
    assert json.loads(committed)["passed"] is True
    assert canonical_json(seed0.verdict(name)) == committed, (
        f"seed-0 verdict for {name} drifted from the committed golden; "
        f"regenerate with: python -m repro.chaos run all --out bench/chaos"
    )


@pytest.mark.parametrize("name", scenarios())
def test_online_agrees_with_offline(name, seed0):
    """Per shared guarantee, the offline check (a replay of recorded state
    through the same monitor) equals the online one field for field —
    name, checked, ok and violations; online-only checks are present; and
    the overall online verdict passes exactly when no online check found
    violations."""
    doc = seed0.verdict(name)
    validate_verdict(doc)
    online = doc["online"]
    assert online["enabled"] is True
    assert online["events_seen"] > 0
    offline_checks = {c["name"]: c for c in doc["checks"]}
    online_checks = {c["name"]: c for c in online["checks"]}
    # Every verdict judges the metalog; the other shared guarantees only
    # when the run recorded their inputs.
    assert "metalog-consistency" in offline_checks
    for check in SHARED_CHECKS:
        if check in offline_checks:
            assert offline_checks[check] == online_checks[check], (
                f"{name}: offline {offline_checks[check]} != "
                f"online {online_checks[check]}"
            )
    for check in ONLINE_ONLY:
        assert check in online_checks, f"{name}: missing online check {check}"
    assert online["passed"] == all(c["ok"] for c in online["checks"])


@pytest.mark.parametrize("name", scenarios())
def test_verdict_checks_follow_the_one_order(name, seed0):
    """``Run.result`` orders every verdict's guarantee checks by
    ``CHECK_ORDER``, always judges the metalog, and puts the scenario's
    sanity check last."""
    names = [c["name"] for c in seed0.verdict(name)["checks"]]
    assert "metalog-consistency" in names
    assert names[-1] == "scenario-sanity"
    assert names[:-1] == sorted(names[:-1], key=CHECK_ORDER.index)


@pytest.mark.parametrize("name", scenarios())
def test_monitors_do_not_perturb_the_verdict(name, seed0):
    """Everything except the ``online`` block must be byte-identical with
    monitors on or off — checks, timeline, stats, recovery."""
    on, off = seed0.verdict(name), seed0.verdict(name, monitors=False)
    assert off["online"] == {"enabled": False}
    stripped_on = {k: v for k, v in on.items() if k != "online"}
    stripped_off = {k: v for k, v in off.items() if k != "online"}
    assert canonical_json(stripped_on) == canonical_json(stripped_off)


def test_expected_violation_scenario_fails_online_too(seed0):
    """The one expect-violations scenario (unsafe retries double-apply
    effects) must be caught by the online exactly-once monitor as well."""
    name = "unsafe-flow-crash-retry"
    assert SCENARIOS[name].expect_violations
    online = seed0.verdict(name)["online"]
    assert online["passed"] is False
    failed = [c["name"] for c in online["checks"] if not c["ok"]]
    assert failed == ["exactly-once-effects"]
