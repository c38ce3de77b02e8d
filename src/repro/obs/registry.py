"""A central registry of named counters and gauges.

Every metric lives under one dotted name (``engine.func-0.appends``),
so experiments and tests query a single namespace instead of walking
component objects. :func:`registry_from_cluster` snapshots a running
:class:`~repro.core.cluster.BokiCluster` into a registry.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.sim.metrics import SampleWindow


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def incr(self) -> None:
        self.value += 1


class Gauge:
    """A value that can go up and down (queue depth, cache bytes).

    ``set``/``add`` keep the plain scalar behaviour. :meth:`record`
    additionally appends a ``(time, value)`` sample to ``window`` (a
    :class:`~repro.sim.metrics.SampleWindow`) so consumers that need
    *windowed* views (autoscaling policies, availability SLOs) can query
    ``gauge.window.stats(...)`` instead of re-implementing their own ring
    buffers; ``set``/``add`` updates are not sampled. Samples must be
    recorded in non-decreasing time order (virtual time is monotone, so
    this is free).
    """

    __slots__ = ("name", "value", "window")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0
        self.window = SampleWindow()

    @property
    def samples(self) -> List[Tuple[float, float]]:
        return self.window.samples

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def record(self, t: float, value: float) -> None:
        """Set the gauge and remember the timestamped sample."""
        self.window.record(t, value)
        self.value = value


class MetricsRegistry:
    """Get-or-create registry of metrics keyed by dotted name."""

    def __init__(self):
        self._metrics: Dict[str, Any] = {}

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def _get_or_create(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def get(self, name: str) -> Any:
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[Tuple[str, Any]]:
        return iter(sorted(self._metrics.items()))

    def names(self, prefix: str = "") -> List[str]:
        return sorted(n for n in self._metrics if n.startswith(prefix))

    def value(self, name: str) -> float:
        """Scalar value of a counter or gauge."""
        return self._metrics[name].value

    def snapshot(self) -> Dict[str, Any]:
        """All metrics as plain scalars (sorted by name — deterministic)."""
        return {name: metric.value for name, metric in self}


def registry_from_cluster(cluster, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Snapshot a :class:`BokiCluster`'s component counters into a registry.

    Covers appends, reads, cache behaviour, index sizes (including
    per-index lookup counts), storage record counts and sequencer entries
    under stable dotted names.
    """
    reg = registry or MetricsRegistry()
    reg.gauge("cluster.virtual_time").set(cluster.env.now)
    term = cluster.controller.current_term
    reg.gauge("cluster.term_id").set(term.term_id if term else 0)
    reg.gauge("cluster.reconfigurations").set(cluster.controller.reconfig_count)
    reg.gauge("net.messages_sent").set(cluster.net.messages_sent)
    # Queue-state gauges (``queue.*`` names are point-in-time: the
    # benchmark harness deliberately excludes them from artifact
    # counters).
    reg.gauge("queue.gateway.inflight").set(cluster.gateway.inflight)
    reg.gauge("queue.gateway.inflight_peak").set(cluster.gateway.inflight_peak)
    for fnode in cluster.function_nodes:
        reg.gauge(f"queue.worker.{fnode.name}.depth").set(fnode.queue_depth)
    for name, engine in sorted(cluster.engines.items()):
        reg.gauge(f"queue.engine.{name}.depth").set(engine.appends_inflight)
        reg.gauge(f"queue.engine.{name}.peak").set(engine.appends_inflight_peak)
    for node in cluster.storage_nodes:
        reg.gauge(f"queue.storage.{node.name}.pending").set(node.pending_writes)
        reg.gauge(f"queue.storage.{node.name}.peak").set(node.pending_writes_peak)
    for name, engine in sorted(cluster.engines.items()):
        prefix = f"engine.{name}"
        reg.gauge(f"{prefix}.appends_started").set(engine.appends_started)
        reg.gauge(f"{prefix}.reads_served").set(engine.reads_served)
        reg.gauge(f"{prefix}.remote_reads").set(engine.remote_reads)
        reg.gauge(f"{prefix}.cache.hits").set(engine.cache.hits)
        reg.gauge(f"{prefix}.cache.misses").set(engine.cache.misses)
        reg.gauge(f"{prefix}.cache.used_bytes").set(engine.cache.used_bytes)
        reg.gauge(f"{prefix}.cache.evictions").set(engine.cache.evictions)
        for log_id, index in sorted(engine.indices.items()):
            reg.gauge(f"{prefix}.index.{log_id}.records").set(index.record_count)
            reg.gauge(f"{prefix}.index.{log_id}.lookups").set(index.lookups)
    for node in cluster.storage_nodes:
        prefix = f"storage.{node.name}"
        reg.gauge(f"{prefix}.records").set(len(node._by_seqnum))
        reg.gauge(f"{prefix}.aux_backups").set(len(node._aux_backup))
        reg.gauge(f"{prefix}.trimmed").set(node.trimmed_count)
    for node in cluster.sequencer_nodes:
        prefix = f"sequencer.{node.name}"
        reg.gauge(f"{prefix}.entries_appended").set(node.entries_appended)
        reg.gauge(f"{prefix}.replicas").set(len(node.replicas))
        reg.gauge(f"{prefix}.sealed_replicas").set(
            sum(1 for r in node.replicas.values() if r.sealed)
        )
    # Per-tenant counters (repro.tenant): admitted/shed totals per tenant
    # under stable names; the windowed rps/shed_rate *time series* live in
    # the live obs registry (tenant.<id>.rps samples), recorded by the
    # hub as traffic arrives.
    if cluster.tenancy is not None:
        for tenant, stats in cluster.tenancy.fairness_snapshot()["tenants"].items():
            prefix = f"tenant.{tenant}"
            reg.gauge(f"{prefix}.admitted").set(stats["admitted"])
            reg.gauge(f"{prefix}.shed").set(stats["shed"])
            reg.gauge(f"{prefix}.throttled").set(stats["throttled"])
            reg.gauge(f"{prefix}.inflight_peak").set(stats["inflight_peak"])
    return reg
