"""Elasticity chaos scenarios: the autoscaler's control loop under
faults that overlap its scaling decisions, with byte-identical verdicts
per seed (the golden-file guarantee CI relies on)."""

import json
import os

import pytest

from repro.chaos.runner import SCHEMA, run_scenario
from repro.chaos.scenarios import SCENARIOS, scenarios
from repro.obs.artifact import canonical_json

pytestmark = [pytest.mark.chaos, pytest.mark.elastic]

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "bench", "chaos")


def test_catalog_lists_both_elastic_scenarios():
    names = scenarios("elastic")
    assert names == [
        "elastic-flash-crowd-primary-crash",
        "elastic-scale-in-during-partition",
    ]
    for name in names:
        assert "elastic" in SCENARIOS[name].tags
        assert not SCENARIOS[name].expect_violations


def test_scale_in_during_partition_passes_safety_checks():
    doc = run_scenario("elastic-scale-in-during-partition", seed=1)
    assert doc["schema"] == SCHEMA == "repro.chaos/2"
    assert doc["passed"], doc["checks"]
    stats = doc["stats"]
    # The fleet shrank while its victims were partitioned away...
    assert stats["scale_ins_during_partition"] > 0
    assert stats["engines_active"] < 3
    assert stats["storage_active"] == 3
    # ...and the queue lost and duplicated nothing across the shrink.
    assert stats["popped"] == stats["pushed"] == 30
    # Scaling decisions appear in the verdict timeline next to the faults.
    actions = {e["action"] for e in doc["timeline"]}
    assert "scale-in" in actions and "partition_groups" in actions


def test_flash_crowd_primary_crash_meets_slo():
    doc = run_scenario("elastic-flash-crowd-primary-crash", seed=1)
    assert doc["passed"], doc["checks"]
    stats = doc["stats"]
    assert stats["peak_engines"] > 2, "flash crowd must grow the fleet"
    assert stats["reaction_time_s"] < 0.5
    assert stats["final_term"] > stats["initial_term"]
    recovery = doc["recovery"]
    assert recovery["enabled"] is True
    assert recovery["availability"] >= 0.9
    assert recovery["rto_s"] is not None


@pytest.mark.parametrize("name", scenarios("elastic"))
def test_seed0_verdict_matches_committed_golden(name, seed0):
    golden = os.path.join(GOLDEN_DIR, f"chaos_{name}_seed0.json")
    with open(golden) as handle:
        committed = handle.read()
    assert json.loads(committed)["passed"] is True
    assert canonical_json(seed0.verdict(name)) == committed, (
        f"seed-0 verdict for {name} drifted from the committed golden; "
        f"regenerate with: python -m repro.chaos run elastic --out bench/chaos"
    )
