"""Monitors observe, never perturb: fault-free byte-identity and no RNG.

Mirrors the resilience layer's ``TestFaultFreeTransparency`` — the same
seed with monitors + alerting enabled must produce a byte-identical
simulation (virtual clock, message count, operation history) and leave
every RNG stream untouched, because the taps are synchronous attribute
calls and the alert evaluator only reads windows.
"""

import pytest

from tests.conftest import fault_free_run

pytestmark = [pytest.mark.chaos, pytest.mark.monitor]


def _run(monitored):
    def enable(cluster):
        cluster.enable_monitoring(context={"test": "transparency"})

    return fault_free_run(enable if monitored else None)


def test_monitoring_invisible_to_the_simulation():
    _, plain = _run(monitored=False)
    monitored_cluster, monitored = _run(monitored=True)
    assert plain == monitored
    # The monitors actually saw the run (this is not a vacuous pass).
    hub = monitored_cluster.monitor
    assert hub.events_seen > 0
    assert hub.alerts.evaluations > 0
    assert all(r.ok for r in hub.results())


def test_monitoring_consumes_no_rng():
    """Same streams created, every stream's state identical — monitors
    and the alert loop never draw randomness."""
    states = []
    for monitored in (False, True):
        cluster, _ = _run(monitored=monitored)
        states.append({
            name: rng.getstate()
            for name, rng in cluster.streams._streams.items()
        })
    assert sorted(states[0]) == sorted(states[1])
    for name in states[0]:
        assert states[0][name] == states[1][name], f"stream {name} diverged"


def test_no_alerts_fire_on_a_healthy_run():
    cluster, _ = _run(monitored=True)
    assert cluster.monitor.alerts.alerts == []
    assert cluster.monitor.recorder.snapshots == []
