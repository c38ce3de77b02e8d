"""Tests for the cluster observability snapshot (``registry_from_cluster``)."""

import pytest

from repro.core import BokiCluster
from repro.obs import registry_from_cluster


@pytest.fixture
def cluster():
    c = BokiCluster(num_function_nodes=2, index_engines_per_log=2)
    c.boot()
    return c


def _total(reg, prefix, suffix):
    return sum(reg.value(n) for n in reg.names(prefix=prefix) if n.endswith(suffix))


def test_counts_reflect_activity(cluster):
    def flow():
        book = cluster.logbook(1)
        for i in range(5):
            yield from book.append({"i": i}, tags=[2])
        for _ in range(3):
            yield from book.read_next(tag=2, min_seqnum=0)

    cluster.drive(flow())
    reg = registry_from_cluster(cluster)
    assert _total(reg, "engine.", ".appends_started") == 5
    assert _total(reg, "engine.", ".reads_served") >= 3
    assert reg.value("cluster.term_id") == 1
    assert reg.value("cluster.reconfigurations") == 0
    assert reg.value("net.messages_sent") > 0


def test_storage_and_sequencer_stats(cluster):
    def flow():
        book = cluster.logbook(1)
        seqnum = yield from book.append("x", tags=[2])
        yield from book.trim(seqnum, tag=2)
        yield cluster.env.timeout(0.05)

    cluster.drive(flow())
    reg = registry_from_cluster(cluster)
    assert _total(reg, "storage.", ".trimmed") > 0
    assert _total(reg, "sequencer.", ".entries_appended") > 0


def test_cache_hit_rate_computed(cluster):
    def flow():
        book = cluster.logbook(1)
        seqnum = yield from book.append("x", tags=[2])
        yield from book.read_next(tag=2, min_seqnum=seqnum)
        yield from book.read_next(tag=2, min_seqnum=seqnum)

    cluster.drive(flow())
    reg = registry_from_cluster(cluster)
    rates = []
    for name in cluster.engines:
        hits = reg.value(f"engine.{name}.cache.hits")
        total = hits + reg.value(f"engine.{name}.cache.misses")
        rates.append(hits / total if total else 0.0)
    assert any(rate > 0 for rate in rates)


def test_summary_lines_render(cluster):
    def flow():
        book = cluster.logbook(1)
        yield from book.append("x")

    cluster.drive(flow())
    snap = registry_from_cluster(cluster).snapshot()
    assert any(name.endswith(".appends_started") and value == 1
               for name, value in snap.items())
    assert any(name.startswith("engine.") for name in snap)
    assert any(name.startswith("storage.") for name in snap)


def test_sealed_replicas_after_reconfig():
    c = BokiCluster(num_sequencer_nodes=6)
    c.boot()

    def flow():
        book = c.logbook(1)
        yield from book.append("x")
        yield from c.controller.reconfigure()

    c.drive(flow(), limit=120.0)
    reg = registry_from_cluster(c)
    assert reg.value("cluster.reconfigurations") == 1
    assert reg.value("cluster.term_id") == 2
    assert _total(reg, "sequencer.", ".sealed_replicas") >= 2
