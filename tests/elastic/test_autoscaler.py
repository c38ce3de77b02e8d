"""End-to-end autoscaler behaviour on a small cluster: scale-out under
load, scale-in when idle, routing + fencing of decommissioned nodes,
node-seconds accounting, and same-seed determinism."""

import pytest

from repro.core.cluster import BokiCluster
from repro.elastic import HysteresisPolicy, PolicyConfig

pytestmark = pytest.mark.elastic


def _elastic_cluster(seed=1, resilience=True):
    cluster = BokiCluster(
        num_function_nodes=2, num_spare_function_nodes=2,
        num_storage_nodes=3, num_spare_storage_nodes=1,
        workers_per_node=4, seed=seed,
    )
    if resilience:
        cluster.enable_resilience()
    auto = cluster.enable_elasticity(
        engine_policy=HysteresisPolicy(PolicyConfig(
            min_nodes=1, max_nodes=4, cooldown_down=0.5,
        )),
    )
    cluster.boot()
    env = cluster.env

    def handler(ctx, arg):
        yield env.timeout(0.01)
        return arg

    cluster.register_function("busy", handler)
    return cluster, auto


def _drive_load(cluster, clients=12, requests=60):
    env = cluster.env

    def client(n):
        for k in range(n):
            yield from cluster.invoke("busy", k)

    procs = [env.process(client(requests)) for _ in range(clients)]
    for proc in procs:
        env.run_until(proc, limit=120)


def test_spares_start_outside_the_fleet():
    cluster, auto = _elastic_cluster()
    assert auto.active_engines == ["func-0", "func-1"]
    assert auto.active_storage == ["storage-0", "storage-1", "storage-2"]
    term = cluster.controller.current_term
    for asg in term.logs.values():
        assert set(asg.shards) == {"func-0", "func-1"}
        assert "storage-3" not in asg.storage_nodes()


def test_scale_out_under_load_then_scale_in_when_idle():
    cluster, auto = _elastic_cluster()
    _drive_load(cluster)
    out = auto.scale_events("scale-out")
    assert out, "sustained overload must trigger a scale-out"
    assert len(auto.active_engines) > 2
    assert cluster.controller.current_term.term_id > 1
    # Gateway routing follows the fleet.
    assert cluster.gateway.active_nodes == frozenset(auto.active_engines)

    cluster.env.run(until=cluster.env.now + 3.0)
    assert auto.scale_events("scale-in"), "idle fleet must shrink"
    assert len(auto.active_engines) < 4


def test_scale_in_fences_and_scale_out_unfences():
    cluster, auto = _elastic_cluster()
    _drive_load(cluster)
    cluster.env.run(until=cluster.env.now + 3.0)
    removed = {
        name for event in auto.scale_events("scale-in")
        for name in event["removed"]
    }
    assert removed
    assert removed <= auto._fenced, "decommissioned nodes must be fenced"
    for name in removed:
        assert not cluster.net.reachable(
            cluster.gateway.node.name, name
        ), f"{name} should be isolated"
    # A second surge re-admits (and unfences) the spares.
    _drive_load(cluster)
    for name in auto.active_engines:
        assert name not in auto._fenced
        assert cluster.net.reachable(cluster.gateway.node.name, name)


def test_heal_all_leaves_fencing_alone():
    """A chaos heal restores the links chaos cut, not the autoscaler's
    fences: a decommissioned node stays unreachable across it."""
    cluster, auto = _elastic_cluster()
    _drive_load(cluster)
    cluster.env.run(until=cluster.env.now + 3.0)
    assert auto._fenced
    gateway = cluster.gateway.node.name
    live = auto.active_engines[0]
    cluster.net.partition_groups([[gateway], [live]])
    cluster.net.heal_all()
    assert cluster.net.reachable(gateway, live)
    for name in sorted(auto._fenced):
        assert not cluster.net.reachable(gateway, name), f"{name} was unfenced"


def test_no_fencing_without_resilience():
    cluster, auto = _elastic_cluster(resilience=False)
    _drive_load(cluster)
    cluster.env.run(until=cluster.env.now + 3.0)
    assert auto.scale_events("scale-in")
    assert not auto._fenced, "fencing requires read failover (repro.resil)"


def test_node_seconds_accounting_tracks_fleet_changes():
    cluster, auto = _elastic_cluster()
    _drive_load(cluster)
    cluster.env.run(until=cluster.env.now + 3.0)
    now = cluster.env.now
    static = now * (len(auto.engine_pool) + len(auto.storage_pool))
    assert 0 < auto.node_seconds(now) < static, (
        "autoscaled node-seconds must undercut an always-max fleet"
    )


def test_autoscaler_timeline_is_deterministic_per_seed():
    def run(seed):
        cluster, auto = _elastic_cluster(seed=seed)
        _drive_load(cluster)
        cluster.env.run(until=cluster.env.now + 3.0)
        return auto.events, cluster.env.now

    events_a, now_a = run(7)
    events_b, now_b = run(7)
    assert events_a == events_b
    assert now_a == now_b
    events_c, _ = run(8)
    assert events_c, "different seed still scales"


def test_signals_are_recorded_as_windowed_gauges():
    cluster, auto = _elastic_cluster()
    _drive_load(cluster)
    stats = auto.registry.gauge("elastic.engine.util").window.stats(window=1.0)
    assert stats["count"] > 0
    assert stats["max"] > 0.75, "overload must be visible in the signal"
    fleet = auto.registry.gauge("elastic.fleet.engines").window.stats(window=1.0)
    assert fleet["last"] == len(auto.active_engines)


def test_stop_halts_the_loop():
    cluster, auto = _elastic_cluster()
    auto.stop()
    before = len(auto.events)
    _drive_load(cluster, clients=12, requests=30)
    assert len(auto.events) == before
