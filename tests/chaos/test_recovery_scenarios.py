"""Recovery scenarios: availability/RTO SLOs, degraded baselines, and the
determinism guarantees of the resilience layer."""

import pytest

from repro.chaos.history import History
from repro.chaos.liveness import check_recovery_slo, recovery_metrics
from repro.chaos.runner import SCHEMA, run_scenario
from repro.chaos.scenarios import SCENARIOS, scenarios
from repro.core.cluster import BokiCluster
from tests.conftest import fault_free_run

pytestmark = [pytest.mark.chaos, pytest.mark.recovery]


class TestLivenessChecker:
    def _history(self, env_times):
        history = History(env=None)

        class FakeEnv:
            now = 0.0

        history.env = FakeEnv()
        for kind, t_invoke, t_return, ok in env_times:
            history.env.now = t_invoke
            op = history.invoke("c", kind, "k", 1)
            history.env.now = t_return
            (history.ok if ok else history.fail)(op, "x")
        return history

    def test_metrics_window_availability_and_rto(self):
        history = self._history([
            ("op", 0.1, 0.2, True),   # before the fault: excluded
            ("op", 1.0, 1.1, False),
            ("op", 1.2, 1.6, True),   # first post-fault success
            ("op", 1.7, 1.8, True),
        ])
        metrics = recovery_metrics(history, fault_at=0.5)
        assert metrics["window_ops"] == 3
        assert metrics["window_ok"] == 2
        assert metrics["availability"] == pytest.approx(2 / 3)
        assert metrics["rto_s"] == pytest.approx(1.6 - 0.5)

    def test_never_recovering_yields_unbounded_rto(self):
        history = self._history([("op", 1.0, 1.1, False)])
        metrics = recovery_metrics(history, fault_at=0.5)
        assert metrics["rto_s"] is None
        result = check_recovery_slo(metrics)
        assert result.violations

    def test_slo_pass_and_fail(self):
        good = {"availability": 0.95, "rto_s": 1.0, "window_ops": 10}
        assert not check_recovery_slo(good).violations
        bad = {"availability": 0.5, "rto_s": 1.0, "window_ops": 10}
        assert check_recovery_slo(bad).violations
        idle = {"availability": None, "rto_s": None, "window_ops": 0}
        assert len(check_recovery_slo(idle).violations) == 2


class TestRecoveryScenarios:
    def test_catalog_pairs_recovery_with_baselines(self):
        names = scenarios("recovery")
        assert "crash-primary-under-load" in names
        assert "crash-primary-under-load-norecovery" in names
        assert "coordinator-crash-midcommit" in names
        assert "coordinator-crash-midcommit-norecovery" in names
        assert "flaky-links-retry-storm" in names

    @pytest.mark.parametrize("name", ["coordinator-crash-midcommit",
                                      "flaky-links-retry-storm"])
    def test_resilient_scenario_meets_slo(self, name):
        doc = run_scenario(name, seed=1)
        assert doc["schema"] == SCHEMA == "repro.chaos/2"
        assert doc["passed"], doc["checks"]
        recovery = doc["recovery"]
        assert recovery["enabled"] is True
        assert recovery["availability"] >= 0.9
        assert recovery["rto_s"] is not None  # recovery happened in finite time

    def test_crash_primary_meets_slo(self):
        doc = run_scenario("crash-primary-under-load", seed=1)
        assert doc["passed"], doc["checks"]
        assert doc["recovery"]["availability"] >= 0.9
        assert doc["recovery"]["rto_s"] is not None
        assert doc["stats"]["resil_retries"] > 0

    @pytest.mark.parametrize("name", ["coordinator-crash-midcommit-norecovery",
                                      "crash-primary-under-load-norecovery"])
    def test_baseline_degrades_but_stays_safe(self, name):
        """Without the resilience layer the same faults degrade
        availability below the SLO — yet safety checkers still pass, so
        the baseline isolates liveness loss from safety loss."""
        doc = run_scenario(name, seed=1)
        assert doc["passed"], doc["checks"]
        recovery = doc["recovery"]
        assert recovery["enabled"] is False
        assert recovery["availability"] < 0.9

    def test_recovery_scenarios_are_marked_in_catalog(self):
        for name in scenarios("recovery"):
            assert "recovery" in SCENARIOS[name].tags


class TestFaultFreeTransparency:
    def test_resilience_layer_invisible_without_faults(self):
        """Same seed, no faults: enabling the resilience layer must not
        perturb the simulation — no extra messages, no RNG draws, and a
        byte-identical operation history."""
        _, plain = fault_free_run()
        _, resilient = fault_free_run(BokiCluster.enable_resilience)
        assert plain == resilient

    def test_no_jitter_rng_consumed_without_faults(self):
        cluster, _ = fault_free_run(
            BokiCluster.enable_resilience, seed=3, num_clients=1,
            ops_per_client=5, num_function_nodes=2)
        assert "resil-jitter" not in cluster.streams._streams
        assert cluster.resil.counters["retries"] == 0
