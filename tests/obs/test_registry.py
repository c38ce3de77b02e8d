"""MetricsRegistry unit tests and the cluster snapshot."""

import pytest

from repro.core.cluster import BokiCluster
from repro.obs.registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    registry_from_cluster,
)


def test_counter_monotonic():
    reg = MetricsRegistry()
    counter = reg.counter("reqs")
    counter.incr()
    counter.incr()
    assert reg.value("reqs") == 2


def test_gauge_set_and_add():
    reg = MetricsRegistry()
    gauge = reg.gauge("depth")
    gauge.set(3.0)
    gauge.add(-1.5)
    assert reg.value("depth") == 1.5


def test_get_or_create_is_idempotent_and_typed():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")
    assert "x" in reg
    assert reg.names() == ["x"]


def test_snapshot_is_scalars_sorted_by_name():
    reg = MetricsRegistry()
    reg.counter("b.count").incr()
    reg.gauge("a.depth").set(1.0)
    snap = reg.snapshot()
    assert list(snap) == ["a.depth", "b.count"]  # sorted
    assert snap == {"a.depth": 1.0, "b.count": 1}


def test_metric_classes_exported():
    reg = MetricsRegistry()
    assert isinstance(reg.counter("c"), Counter)
    assert isinstance(reg.gauge("g"), Gauge)


def test_registry_from_cluster_snapshot():
    cluster = BokiCluster(
        num_function_nodes=2, num_storage_nodes=3, num_sequencer_nodes=3, seed=3
    )
    cluster.boot()
    book = cluster.logbook(1)
    seqnum = cluster.drive(book.append("hello"))
    cluster.drive(book.read_next(min_seqnum=seqnum))

    reg = registry_from_cluster(cluster)
    assert reg.value("cluster.virtual_time") == cluster.env.now
    assert reg.value("cluster.term_id") >= 1
    assert reg.value("net.messages_sent") > 0
    engine_names = [f"engine.{name}" for name in cluster.engines]
    assert sum(reg.value(f"{p}.appends_started") for p in engine_names) == 1
    assert sum(reg.value(f"{p}.reads_served") for p in engine_names) >= 1
    lookup_names = reg.names(prefix="engine.")
    assert any(n.endswith(".lookups") for n in lookup_names)
    storage_records = sum(
        reg.value(n) for n in reg.names(prefix="storage.") if n.endswith(".records")
    )
    assert storage_records > 0  # the append was replicated and ordered
    seq_entries = sum(
        reg.value(n)
        for n in reg.names(prefix="sequencer.")
        if n.endswith(".entries_appended")
    )
    assert seq_entries >= 1


def test_cluster_metrics_snapshot_uses_obs_registry():
    cluster = BokiCluster(
        num_function_nodes=1, num_storage_nodes=3, num_sequencer_nodes=3, seed=3
    )
    obs = cluster.enable_observability()
    cluster.boot()
    reg = cluster.metrics_snapshot()
    assert reg is obs.metrics  # live registry reused, not a copy
    assert reg.value("cluster.virtual_time") == cluster.env.now


# ---------------------------------------------------------------------------
# Windowed gauges (Gauge.window)
# ---------------------------------------------------------------------------

def test_gauge_record_keeps_timestamped_samples():
    reg = MetricsRegistry()
    gauge = reg.gauge("util")
    gauge.record(0.0, 0.2)
    gauge.record(1.0, 0.8)
    assert gauge.value == 0.8  # record also sets the scalar
    assert gauge.samples == [(0.0, 0.2), (1.0, 0.8)]


def test_gauge_record_rejects_time_travel():
    gauge = Gauge("util")
    gauge.record(2.0, 1.0)
    with pytest.raises(ValueError):
        gauge.record(1.0, 1.0)


def test_gauge_window_lookback_duration():
    reg = MetricsRegistry()
    gauge = reg.gauge("depth")
    for t in range(10):
        gauge.record(float(t), float(t))
    stats = gauge.window.stats(window=3.0)
    # end defaults to the last sample (t=9): window covers t in [6, 9].
    assert stats["count"] == 4
    assert stats["mean"] == pytest.approx(7.5)
    assert stats["max"] == 9.0
    assert stats["min"] == 6.0
    assert stats["last"] == 9.0


def test_gauge_window_explicit_bounds():
    reg = MetricsRegistry()
    gauge = reg.gauge("depth")
    for t in range(10):
        gauge.record(float(t), float(t) * 2)
    stats = gauge.window.stats(start=2.0, end=4.0)
    assert stats["count"] == 3  # bounds are inclusive
    assert stats["mean"] == pytest.approx(6.0)
    # start combined with window: the later bound wins.
    stats = gauge.window.stats(window=100.0, start=8.0)
    assert stats["count"] == 2


def test_gauge_window_empty_selection():
    reg = MetricsRegistry()
    gauge = reg.gauge("depth")
    gauge.record(1.0, 5.0)
    stats = gauge.window.stats(start=2.0)
    assert stats == {"count": 0, "mean": None, "max": None,
                     "min": None, "last": None}
