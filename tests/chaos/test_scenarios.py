"""End-to-end scenario tests: fast scenarios pass, the unsafe baseline is
flagged, and verdict artifacts are byte-identical across reruns."""

import json
import os
import re
import sys

import pytest

from repro.chaos import scenarios as scenario_module
from repro.chaos.faults import fault
from repro.chaos.lifecycle import Run
from repro.chaos.loads import store_load
from repro.chaos.runner import (
    SCHEMA,
    execute,
    run_scenario,
    validate_verdict,
    write_verdict,
)
from repro.chaos.scenarios import SCENARIOS, SMALL, scenarios
from repro.libs.bokiflow.env import WorkflowCrash
from repro.obs.artifact import canonical_json
from repro.obs.profile import KernelProfiler

pytestmark = pytest.mark.chaos

#: The (scenario, seed) pairs rerun for byte identity, each under its
#: suite's marker so ``-m elastic`` and ``-m recovery`` still select it.
#: The admission suite reruns its own scenarios in
#: ``tests/admission/test_retry_storm.py``.
RERUNS = (
    [pytest.param("queue-link-chaos", 3)]
    + [pytest.param(name, 2, marks=pytest.mark.elastic)
       for name in scenarios("elastic")]
    + [pytest.param("coordinator-crash-midcommit", 2,
                    marks=pytest.mark.recovery)]
)


class TestCatalog:
    def test_catalog_has_fast_and_violation_scenarios(self):
        assert len(SCENARIOS) >= 5
        assert scenarios("fast")
        assert any(s.expect_violations for s in SCENARIOS.values())
        assert scenarios() == sorted(SCENARIOS)

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            run_scenario("no-such-scenario", seed=1)


class TestFastScenarios:
    @pytest.mark.parametrize("name", scenarios("fast"))
    def test_fast_scenario_passes(self, name):
        doc = run_scenario(name, seed=1)
        validate_verdict(doc)
        assert doc["passed"], doc["checks"]
        assert doc["schema"] == SCHEMA
        assert doc["timeline"], "scenario applied no faults"

    def test_unsafe_baseline_is_flagged(self):
        doc = run_scenario("unsafe-flow-crash-retry", seed=1)
        assert doc["expect_violations"]
        assert doc["violations"] > 0
        assert doc["passed"]
        dup = [v for c in doc["checks"] for v in c["violations"]
               if "duplicate" in v]
        assert dup, "unsafe baseline must show duplicated effects"

    def test_boki_flow_applies_effects_exactly_once(self):
        doc = run_scenario("flow-crash-retry", seed=1)
        assert doc["passed"]
        assert doc["stats"]["counter_result"] == 1.0
        assert doc["stats"]["effects_applied"] == 3

    def test_flow_pair_timeline_stamps_the_instant_the_crash_fired(self, monkeypatch):
        run = Run("flow-crash-retry", seed=0)
        fired = []

        class Crash(WorkflowCrash):
            def __init__(self, message):
                fired.append(run.cluster.env.now)
                super().__init__(message)

        monkeypatch.setattr(scenario_module, "WorkflowCrash", Crash)
        result = SCENARIOS["flow-crash-retry"].fn(run)
        assert len(fired) == 1 and fired[0] > 0
        assert result.timeline == [{"t": round(fired[0], 9), "action": "workflow_crash",
                                    "args": ["chaos-wf-1", "before-step-2"]}]


class TestSanity:
    def test_plan_event_after_the_run_ends_fails_sanity(self):
        """``Run.result`` derives "every planned fault was applied": an
        event the run never reached fails ``scenario-sanity``."""
        run = Run("late-fault", seed=0, monitors=False)
        cluster = run.build(**SMALL)
        history = run.boot()
        run.inject(fault(0.0, "mark", "load"), fault(50.0, "crash", "storage-1"))
        run.drive(store_load(cluster, history, num_clients=1, ops_per_client=10))
        assert cluster.env.now < 50.0
        sanity = run.result(sanity=[(True, "load ran")]).checks[-1]
        assert sanity.name == "scenario-sanity" and sanity.checked == 2
        assert sanity.violations == ["planned faults never fired: crash@50"]

    def test_plan_event_naming_a_node_the_cluster_lacks_fails_sanity(self):
        """Crashing ``storage-9`` on a 3-storage cluster raises when the
        event fires: it stays pending, so the run fails ``scenario-sanity``
        instead of passing with an empty timeline."""
        run = Run("missing-node", seed=0, monitors=False)
        cluster = run.build(**SMALL)
        history = run.boot()
        run.inject(fault(0.01, "crash", "storage-9"))
        run.drive(store_load(cluster, history, num_clients=1, ops_per_client=10))
        result = run.result(sanity=[(True, "load ran")])
        assert result.timeline == []
        assert result.checks[-1].violations == ["planned faults never fired: crash@0.01"]


class TestCrashRecovery:
    def test_primary_crash_scenario_reconfigures(self):
        doc = run_scenario("crash-primary-sequencer", seed=1)
        assert doc["passed"], doc["checks"]
        assert doc["stats"]["final_term"] > doc["stats"]["initial_term"]
        assert doc["stats"]["ops_ok_after_crash"] > 0


class TestIdleAfterFaults:
    def test_an_idle_cluster_after_lost_messages_schedules_nothing_in_core(self):
        """Once the faults and the load are over, every metalog follower
        has applied what it was sent and fetched what it lost, so in an
        idle window no kernel event runs ``repro.core`` code: what still
        ticks lives outside it (the coordinator's session sweep)."""
        cluster = execute("queue-link-chaos", 0, monitors=False).cluster
        followers = [f for engine in cluster.engines.values() for f in engine._states.values()]
        followers += [f for node in cluster.storage_nodes for f in node._logs.values()]
        assert all(f.buffer == {} and f.stalled_since is None for f in followers)
        core = set()

        def note_core(frame, event, arg):
            module = frame.f_globals.get("__name__", "")
            if event == "call" and module.startswith("repro.core."):
                core.add(f"{module}.{frame.f_code.co_name}")

        env = cluster.env
        profiler = KernelProfiler(env)
        sys.setprofile(note_core)
        try:
            env.run(until=env.now + 0.5)
        finally:
            sys.setprofile(None)
            profiler.detach()
        print("\n".join(profiler.report_lines()))
        assert core == set()


class TestDeterminism:
    @pytest.mark.parametrize("name,seed", RERUNS)
    def test_same_seed_rerun_is_byte_identical(self, name, seed, tmp_path):
        """The whole point of seed-deterministic chaos: rerunning a
        scenario with the same seed reproduces the fault timeline and the
        verdict file byte for byte."""
        paths = []
        for run in ("a", "b"):
            doc = run_scenario(name, seed=seed)
            paths.append(write_verdict(doc, directory=str(tmp_path / run)))
        with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
            assert fa.read() == fb.read()

    def test_different_seeds_yield_different_runs(self):
        a = run_scenario("queue-link-chaos", seed=1)
        b = run_scenario("queue-link-chaos", seed=2)
        assert a["stats"]["messages_sent"] != b["stats"]["messages_sent"]

    def test_verdict_json_is_canonical(self):
        doc = run_scenario("flow-crash-retry", seed=1)
        text = canonical_json(doc)
        assert text.endswith("\n")
        assert json.loads(text) == json.loads(canonical_json(doc))
        # Round-trips through the loader with validation.
        assert sorted(json.loads(text)) == sorted(doc)


class TestVerdictIO:
    def test_write_and_load_roundtrip(self, tmp_path):
        doc = run_scenario("flow-crash-retry", seed=2)
        path = write_verdict(doc, directory=str(tmp_path))
        assert os.path.basename(path) == "chaos_flow-crash-retry_seed2.json"
        with open(path) as handle:
            loaded = json.load(handle)
        validate_verdict(loaded)
        assert loaded == doc

    def test_validate_rejects_malformed_docs(self):
        with pytest.raises(ValueError):
            validate_verdict({"schema": "wrong"})
        doc = run_scenario("flow-crash-retry", seed=1)
        broken = dict(doc)
        broken.pop("checks")
        with pytest.raises(ValueError):
            validate_verdict(broken)

    def test_validate_rejects_offline_online_disagreement(self):
        doc = json.loads(canonical_json(run_scenario("flow-crash-retry", seed=1)))
        validate_verdict(doc)
        online = next(c for c in doc["online"]["checks"]
                      if c["name"] == "exactly-once-effects")
        online["ok"] = not online["ok"]
        with pytest.raises(ValueError, match="exactly-once-effects: offline ok="):
            validate_verdict(doc)


class TestCli:
    def test_cli_list_and_run(self, tmp_path, capsys):
        from repro.chaos.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "flow-crash-retry" in out
        # Overlapping selectors (a name twice, here) run each (scenario,
        # seed) once, in catalog order.
        assert main(["run", "unsafe-flow-crash-retry", "flow-crash-retry",
                     "flow-crash-retry", "--seeds", "1", "2",
                     "--out", str(tmp_path)]) == 0
        assert re.findall(r"^\[PASS\] (\S+) seed=(\d)", capsys.readouterr().out,
                          re.M) == [
            ("flow-crash-retry", "1"), ("flow-crash-retry", "2"),
            ("unsafe-flow-crash-retry", "1"), ("unsafe-flow-crash-retry", "2"),
        ]
        assert (tmp_path / "chaos_flow-crash-retry_seed1.json").exists()

    def test_cli_run_without_out_leaves_the_goldens_alone(self, tmp_path,
                                                          monkeypatch, capsys):
        from repro.chaos.__main__ import main

        monkeypatch.chdir(tmp_path)
        assert main(["run", "flow-crash-retry", "--seeds", "1"]) == 0
        assert not (tmp_path / "bench" / "chaos").exists()
        assert os.listdir(tmp_path / "bench" / "artifacts" / "chaos") == [
            "chaos_flow-crash-retry_seed1.json"]
