"""Overload chaos scenarios: admission control vs metastable collapse.

The retry-storm pair is the load-bearing contrast of the admission
layer: the same saturating open-loop workload with aggressive
timeout-retrying clients collapses to zero goodput without admission
control (zombie executions burn every worker slot, queues grow without
bound) and sustains near-saturation goodput with it. The other two
scenarios pin the elasticity integration (shed only at max_nodes, batch
first) and degraded-mode operation while the controller is partitioned
mid-scale-out. Verdicts are byte-identical per seed — the golden-file
guarantee CI relies on.
"""

import json
import os

import pytest

from repro.chaos.runner import SCHEMA, run_scenario, write_verdict
from repro.chaos.scenarios import SCENARIOS, scenarios
from repro.obs.artifact import canonical_json

pytestmark = [pytest.mark.chaos, pytest.mark.admission]

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "bench", "chaos")


def test_catalog_lists_the_admission_suite():
    names = scenarios("admission")
    assert names == [
        "noisy-neighbor-batch-flood",
        "retry-storm-metastable",
        "retry-storm-metastable-noadmission",
        "split-brain-controller-during-scale-out",
        "sustained-overload-beyond-max-nodes",
    ]
    for name in names:
        assert "admission" in SCENARIOS[name].tags
    assert SCENARIOS["retry-storm-metastable-noadmission"].expect_violations
    assert not SCENARIOS["retry-storm-metastable"].expect_violations


class TestRetryStormContrast:
    def test_admission_sustains_goodput_under_the_storm(self, seed0):
        doc = seed0.verdict("retry-storm-metastable")
        assert doc["schema"] == SCHEMA == "repro.chaos/2"
        assert doc["passed"], doc["checks"]
        report = doc["overload"]
        assert report["enabled"] is True
        # The ISSUE acceptance bar: >= 70% of analytic saturation goodput
        # with bounded accepted latency and bounded queues.
        assert report["goodput_fraction"] >= 0.7
        assert report["accepted_p99_s"] <= 0.25
        assert all(peak <= 128 for peak in report["queue_peaks"].values())
        assert report["shed"] > 0
        # The limiter converged near the worker count (4 workers, and it
        # backs off multiplicatively every time it overshoots).
        assert report["admission"]["limiter"]["decreases"] > 0

    def test_baseline_exhibits_metastable_goodput_collapse(self, seed0):
        doc = seed0.verdict("retry-storm-metastable-noadmission")
        assert doc["expect_violations"] and doc["passed"], doc["checks"]
        report = doc["overload"]
        assert report["enabled"] is False
        assert report["goodput_fraction"] < 0.1  # collapse, not mere dip
        assert report["queue_peaks"]["worker.depth"] > 128
        messages = [
            v for c in doc["checks"] if c["name"] == "goodput-slo"
            for v in c["violations"]
        ]
        assert any("goodput collapse" in m for m in messages)
        assert any("unbounded queue growth" in m for m in messages)
        # The storm really happened: retries flowed until the budget and
        # breakers gave out — and still could not restore goodput.
        assert doc["stats"]["resil_retries"] > 0
        assert doc["stats"]["resil_budget_denied"] > 0

    def test_the_contrast_is_the_admission_layer(self, seed0):
        """Same seed, same workload, same retry policy — the only delta
        is enable_admission, and it is the difference between collapse
        and capacity."""
        on = seed0.verdict("retry-storm-metastable")["overload"]
        off = seed0.verdict("retry-storm-metastable-noadmission")["overload"]
        assert on["goodput_fraction"] >= 0.7 > off["goodput_fraction"]
        assert (off["queue_peaks"]["worker.depth"]
                > 10 * on["queue_peaks"]["worker.depth"])


def test_sustained_overload_scales_out_then_sheds_batch_first(seed0):
    doc = seed0.verdict("sustained-overload-beyond-max-nodes")
    assert doc["passed"], doc["checks"]
    stats = doc["stats"]
    # Elasticity first: the fleet grew to its max_nodes ceiling...
    assert stats["scale_outs"] >= 1
    assert stats["peak_engines"] == 4
    # ...then shedding engaged, batch before interactive.
    assert stats["shed_total"] > 0
    assert stats["shed_batch"] > stats["shed_interactive"]
    # Interactive store traffic rode through the surge unharmed.
    assert doc["recovery"]["availability"] >= 0.9
    assert doc["overload"]["goodput_fraction"] >= 0.7


def test_split_brain_controller_sheds_while_stuck_then_recovers(seed0):
    doc = seed0.verdict("split-brain-controller-during-scale-out")
    assert doc["passed"], doc["checks"]
    stats = doc["stats"]
    # Scale-out attempts failed while the controller was partitioned...
    assert stats["reconfig_failures"] > 0
    # ...admission kept the stuck fleet useful...
    assert stats["shed_total"] > 0
    assert doc["recovery"]["availability"] >= 0.9
    # ...and the deferred scale-out landed after the heal.
    assert stats["peak_engines"] == 4
    assert stats["ops_ok_after_heal"] > 0


@pytest.mark.xfail(strict=True, reason=(
    "known failure: at seeds 1 and 3 the accepted-operation p99 is ~2.8 s "
    "and ~2.6 s against goodput-slo's 2.0 s bound ('three attempts x 0.5 s "
    "plus back-off'): gateway reroute x client retry nest beyond three "
    "attempts. Turns when the retry allowance is carried in the request "
    "(ROADMAP: 'Retry amplification bounded by construction')."))
@pytest.mark.parametrize("seed", [1, 3])
def test_split_brain_controller_meets_its_goodput_slo(seed):
    doc = run_scenario("split-brain-controller-during-scale-out", seed=seed)
    slo = next(c for c in doc["checks"] if c["name"] == "goodput-slo")
    assert slo["violations"] == []


@pytest.mark.parametrize("name", scenarios("admission"))
def test_verdicts_byte_identical_across_reruns(name, tmp_path):
    paths = []
    for run in ("a", "b"):
        doc = run_scenario(name, seed=2)
        paths.append(write_verdict(doc, directory=str(tmp_path / run)))
    with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
        assert fa.read() == fb.read()


@pytest.mark.parametrize("name", scenarios("admission"))
def test_seed0_verdict_matches_committed_golden(name, seed0):
    golden = os.path.join(GOLDEN_DIR, f"chaos_{name}_seed0.json")
    with open(golden) as handle:
        committed = handle.read()
    assert json.loads(committed)["passed"] is True
    assert canonical_json(seed0.verdict(name)) == committed, (
        f"seed-0 verdict for {name} drifted from the committed golden; "
        f"regenerate with: python -m repro.chaos run admission --out bench/chaos"
    )
