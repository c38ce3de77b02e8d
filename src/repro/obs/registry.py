"""A central registry of named counters, gauges, and histograms.

Every metric lives under one dotted name (``engine.func-0.appends``),
so experiments and tests query a single namespace instead of walking
component objects. :func:`registry_from_cluster` snapshots a running
:class:`~repro.core.cluster.BokiCluster` into a registry.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.sim.metrics import LatencyRecorder, SampleWindow


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0

    def incr(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depth, cache bytes).

    ``set``/``add`` keep the plain scalar behaviour. :meth:`record`
    additionally appends a ``(time, value)`` sample to ``window`` (a
    :class:`~repro.sim.metrics.SampleWindow`) so consumers that need
    *windowed* views (autoscaling policies, availability SLOs) can query
    :meth:`MetricsRegistry.gauge_window` instead of re-implementing their
    own ring buffers. Samples must be recorded in non-decreasing time
    order (virtual time is monotone, so this is free).
    """

    __slots__ = ("name", "help", "value", "window")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
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


class Histogram(LatencyRecorder):
    """A distribution of samples; percentile math shared with the
    benchmark harness (sorted once per summary, cached between)."""

    __slots__ = ()

    def __init__(self, name: str, help: str = ""):
        super().__init__(name)
        self.help = help

    # LatencyRecorder rejects negatives (they are latencies); a general
    # histogram accepts any float.
    def record(self, value: float) -> None:
        self.samples.append(value)
        self._ordered = None

    observe = record


class MetricsRegistry:
    """Get-or-create registry of metrics keyed by dotted name."""

    def __init__(self):
        self._metrics: Dict[str, Any] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get_or_create(name, Histogram, help)

    def _get_or_create(self, name: str, cls, help: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, help)
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
        """Scalar value of a counter/gauge (histograms have summaries)."""
        metric = self._metrics[name]
        if isinstance(metric, Histogram):
            raise TypeError(f"{name!r} is a histogram; use .get(name).summary()")
        return metric.value

    def gauge_window(
        self,
        name: str,
        window: Optional[float] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Windowed statistics (count/mean/max/min/last) over a gauge's
        recent :meth:`Gauge.record` samples; see
        :class:`~repro.sim.metrics.SampleWindow` for the window semantics.
        ``set``/``add`` updates are not sampled — only explicit ``record``
        calls enter the window."""
        metric = self._metrics[name]
        if not isinstance(metric, Gauge):
            raise TypeError(f"{name!r} is not a gauge")
        return metric.window.stats(window=window, start=start, end=end)

    def snapshot(self) -> Dict[str, Any]:
        """All metrics as plain values: scalars for counters/gauges,
        summary dicts for histograms (sorted by name — deterministic)."""
        out: Dict[str, Any] = {}
        for name, metric in self:
            if isinstance(metric, Histogram):
                out[name] = metric.summary() if len(metric) else {"count": 0}
            else:
                out[name] = metric.value
        return out

    def render_text(self) -> str:
        """Plain-text dump, one metric per line, sorted by name."""
        lines = []
        for name, metric in self:
            if isinstance(metric, Histogram):
                if len(metric):
                    s = metric.summary()
                    lines.append(
                        f"{name} count={s['count']} median={s['median']:.6g} "
                        f"p99={s['p99']:.6g} mean={s['mean']:.6g} max={s['max']:.6g}"
                    )
                else:
                    lines.append(f"{name} count=0")
            else:
                lines.append(f"{name} {metric.value:g}")
        return "\n".join(lines)


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
    # counters; the Chrome-trace exporter renders their recorded samples
    # as counter events).
    gateway = getattr(cluster, "gateway", None)
    if gateway is not None:
        reg.gauge("queue.gateway.inflight").set(gateway.inflight)
        reg.gauge("queue.gateway.inflight_peak").set(gateway.inflight_peak)
    for fnode in getattr(cluster, "function_nodes", []):
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
    tenancy = getattr(cluster, "tenancy", None)
    if tenancy is not None:
        for tenant, stats in tenancy.fairness_snapshot()["tenants"].items():
            prefix = f"tenant.{tenant}"
            reg.gauge(f"{prefix}.admitted").set(stats["admitted"])
            reg.gauge(f"{prefix}.shed").set(stats["shed"])
            reg.gauge(f"{prefix}.throttled").set(stats["throttled"])
            reg.gauge(f"{prefix}.inflight_peak").set(stats["inflight_peak"])
    return reg
