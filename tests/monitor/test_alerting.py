"""Unit tests for the alerting layer, the flight recorder and its digest
in the verdict, and the monitor-adjacent satellite pieces (Chrome
instants, the SuccessWindow-backed liveness metrics)."""

import hashlib
import json

import pytest

from repro.chaos.history import History
from repro.chaos.liveness import recovery_metrics
from repro.chaos.runner import execute, verdict, write_flight_records
from repro.obs.alerts import (
    Alert,
    MONITOR_SCHEMA,
    RING,
    SLO,
    render_flight_record,
    validate_flight_record,
)
from repro.obs.artifact import canonical_json
from repro.obs.export import monitor_instants, to_chrome_trace
from repro.obs.monitor import MonitorHub
from repro.obs.registry import MetricsRegistry
from repro.sim.metrics import SuccessWindow

pytestmark = [pytest.mark.monitor]


class _FakeEnv:
    now = 0.0


def _hub(context=None):
    return MonitorHub(_FakeEnv(), context)


# ----------------------------------------------------------------------
# Burn-rate rules + alert manager
# ----------------------------------------------------------------------
class TestBurnRate:
    def test_slo_validation(self):
        with pytest.raises(ValueError):
            SLO("a", "availability", 1.5)
        with pytest.raises(ValueError):
            SLO("a", "bogus", 0.9)
        with pytest.raises(ValueError):
            SLO("l", "latency_p99_ms", -1.0)

    def test_availability_burn_fires_on_error_budget_exhaustion(self):
        hub = _hub()
        manager = hub.alerts
        # 10 ops, all failing: error rate 1.0 / budget 0.1 = 10x burn.
        for i in range(10):
            hub.on_invoke(i * 0.1, i * 0.1 + 0.001, ok=False)
        fired = manager.evaluate(now=1.0)
        assert [a.rule for a in fired] == ["availability-burn"]
        # Still firing: no re-page on the next evaluation.
        assert manager.evaluate(now=1.05) == []
        # Recovery: enough successes drop both windows below threshold.
        for i in range(200):
            hub.on_invoke(1.1 + i * 0.01, 1.1 + i * 0.01, ok=True)
        assert manager.evaluate(now=11.5) == []
        assert manager.transitions[-1]["state"] == "ok"

    def test_min_events_guard_suppresses_thin_windows(self):
        hub = _hub()
        for i in range(4):  # fewer than min_events (5): never judged
            hub.on_invoke(i * 0.1, i * 0.1, ok=False)
        assert hub.alerts.evaluate(now=1.0) == []
        hub.on_invoke(0.4, 0.4, ok=False)  # the fifth is judged
        assert [a.rule for a in hub.alerts.evaluate(now=1.05)] == [
            "availability-burn"]

    def test_latency_burn_uses_p99(self):
        hub = _hub()
        for i in range(20):  # 300ms operations against the 250ms objective
            hub.on_invoke(i * 0.1, i * 0.1 + 0.3, ok=True)
        fired = hub.alerts.evaluate(now=2.3)
        assert [a.rule for a in fired] == ["latency-p99-burn"]
        assert fired[0].burn_fast == pytest.approx(300.0 / 250.0)


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_is_bounded_and_counts_drops(self):
        recorder = _hub().recorder
        for i in range(RING + 1):  # 513 events into a 512-event ring
            recorder.on_metric(i * 0.1, "m", {"i": i})
        assert len(recorder.ring) == RING
        assert recorder.dropped == 1
        assert recorder.ring[0]["i"] == 1

    def test_snapshot_on_alert_is_valid_and_deterministic(self):
        recorder = _hub(context={"scenario": "unit"}).recorder
        recorder.on_metric(0.1, "gateway.op", {"ok": True, "latency_ms": 1.0})
        recorder.on_violation(0.2, "queue-delivery", "boom")
        alert = Alert(t=0.3, rule="avail-burn", slo="avail",
                      kind="availability", severity="page", threshold=2.0,
                      burn_fast=5.0, burn_slow=4.0, message="burning")
        recorder.on_alert(alert)
        assert len(recorder.snapshots) == 1
        doc = recorder.snapshots[0]
        assert doc["schema"] == MONITOR_SCHEMA
        validate_flight_record(doc)
        assert canonical_json(doc) == canonical_json(
            json.loads(canonical_json(doc)))
        text = render_flight_record(doc)
        assert "avail-burn" in text and "queue-delivery" in text

    def test_validate_rejects_malformed_docs(self):
        with pytest.raises(ValueError, match="schema is 'nope'"):
            validate_flight_record({"schema": "nope"})
        with pytest.raises(ValueError, match=r"events\[0\] has no type"):
            validate_flight_record(
                {"schema": MONITOR_SCHEMA, "events": [{"no": "type"}]}
            )
        # Every record is taken for an alert: there is no alert-less one.
        with pytest.raises(ValueError, match="alert is not an object"):
            validate_flight_record({"schema": MONITOR_SCHEMA, "alert": None})


# ----------------------------------------------------------------------
# The verdict gates every flight record by its digest
# ----------------------------------------------------------------------
class TestFlightDigest:
    def test_written_records_hash_to_the_verdicts_digests(self, tmp_path):
        """The body ``--flight-dir`` writes on demand is the one the
        verdict's digests (and so the committed golden) gate."""
        run = execute("retry-storm-metastable", seed=0)  # two alerts
        alerts = verdict(run)["online"]["alerts"]
        paths = write_flight_records(run, tmp_path)
        assert len(paths) == len(alerts) == 2
        for path, alert in zip(paths, alerts):
            with open(path, "rb") as handle:
                body = handle.read()
            assert hashlib.sha256(body).hexdigest() == alert["flight"]["sha256"]
            doc = json.loads(body)
            assert doc["alert"] == {k: v for k, v in alert.items()
                                    if k != "flight"}
            assert alert["flight"]["dropped"] == doc["events_dropped"]
            assert sum(alert["flight"]["events"].values()) == len(doc["events"])
            assert alert["flight"]["window_s"] == [doc["events"][0]["t"],
                                                   doc["events"][-1]["t"]]

    def test_noisy_neighbor_records_are_gated(self, seed0):
        """Its two records were never committed as bodies; the digests in
        its verdict gate them now."""
        alerts = seed0.verdict("noisy-neighbor-batch-flood")["online"]["alerts"]
        digests = [alert["flight"]["sha256"] for alert in alerts]
        assert len(digests) == 2
        assert all(len(d) == 64 for d in digests)


# ----------------------------------------------------------------------
# Satellite: Chrome-trace instant events
# ----------------------------------------------------------------------
class TestMonitorInstants:
    def test_alerts_and_transitions_become_instants(self):
        alert = Alert(t=0.25, rule="avail-burn", slo="avail",
                      kind="availability", severity="page", threshold=2.0,
                      burn_fast=3.0, burn_slow=2.5, message="m")
        transitions = [{"t": 0.25, "rule": "avail-burn", "state": "firing"},
                       {"t": 0.90, "rule": "avail-burn", "state": "ok"}]
        instants = monitor_instants([alert], transitions)
        assert [e["ph"] for e in instants] == ["i", "i", "i"]
        assert all(e["s"] == "g" and e["pid"] == 0 for e in instants)
        assert instants[0]["ts"] == instants[1]["ts"] == 0.25 * 1e6
        assert instants[-1]["name"] == "avail-burn:ok"

    def test_instants_land_in_the_trace_with_a_monitor_lane(self):
        instants = monitor_instants(
            [], [{"t": 0.1, "rule": "r", "state": "firing"}])
        doc = json.loads(to_chrome_trace([], instants=instants))
        events = doc["traceEvents"]
        lanes = [e for e in events if e["ph"] == "M" and e["pid"] == 0]
        assert lanes and lanes[0]["args"]["name"] == "monitor"
        assert any(e["ph"] == "i" for e in events)

    def test_trace_without_instants_is_unchanged(self):
        assert json.loads(to_chrome_trace([]))["traceEvents"] == []


# ----------------------------------------------------------------------
# Satellite: SuccessWindow-backed recovery metrics
# ----------------------------------------------------------------------
class TestRecoveryMetricsRefactor:
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

    def test_success_window_path_agrees_with_gauge_window(self):
        """The refactored recovery_metrics (SuccessWindow) must agree
        with the old MetricsRegistry gauge computation on the same ops."""
        ops = [("op", 0.1, 0.2, True),
               ("op", 1.0, 1.1, False),
               ("op", 1.2, 1.6, True),
               ("op", 1.7, 1.8, True),
               ("op", 2.0, 2.4, False)]
        fault_at = 0.5
        metrics = recovery_metrics(self._history(ops), fault_at=fault_at)

        registry = MetricsRegistry()
        gauge = registry.gauge("recovery.op_ok")
        first_ok = None
        for _, t_invoke, t_return, ok in ops:
            if t_invoke < fault_at:
                continue
            gauge.record(t_invoke, 1.0 if ok else 0.0)
            if ok and (first_ok is None or t_return < first_ok):
                first_ok = t_return
        stats = gauge.window.stats(start=fault_at)
        assert metrics["window_ops"] == stats["count"]
        assert metrics["window_ok"] == int(sum(v for _, v in gauge.samples))
        assert metrics["availability"] == round(stats["mean"], 6)
        assert metrics["rto_s"] == round(first_ok - fault_at, 6)

    def test_success_window_and_metrics_share_counts(self):
        window = SuccessWindow()
        for t, ok in [(1.0, False), (1.2, True), (1.7, True)]:
            window.record(t, ok, t_done=t + 0.1 if ok else None)
        assert window.counts(start=0.5) == (3, 2)
        assert window.availability(start=0.5) == pytest.approx(2 / 3)
        assert window.first_ok_after(0.5) == pytest.approx(1.3)
