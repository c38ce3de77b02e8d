"""Load signals for the elastic control loop.

:class:`SignalSampler` turns a running cluster's component state into
timestamped gauges in a :class:`~repro.obs.registry.MetricsRegistry` —
the same registry namespace ``registry_from_cluster`` populates — and
returns the derived utilizations the policy consumes:

- **engine demand**: worker slots in use plus invocations queued for a
  slot, over the *active* fleet's slot capacity. Queued work counts,
  so a saturated fleet reads above 1.0 and the policy sees how far
  behind it is, not just that it is busy.
- **gateway queue depth**: total invocations waiting for a worker slot.
- **storage demand**: replica-write rate (new records per second across
  the active storage fleet, measured as a counter delta per sample
  interval) against the per-node write budget, plus the instantaneous
  CPU busy fraction as a recorded gauge.
- **per-shard append rates**: each engine owns one shard of every log,
  so per-engine append-counter deltas are the per-shard rates the
  rebalancer and tests inspect.

Sampling reads counters and resource occupancy only — it never creates
simulation events — so an autoscaler that takes no action leaves the
virtual timeline untouched.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.obs.registry import MetricsRegistry

#: Replica writes per second one storage node is budgeted for; storage
#: utilization is measured rate / (budget * fleet size).
STORAGE_WRITE_BUDGET = 4000.0


class SignalSampler:
    """Samples cluster load into timestamped gauges + a signal dict."""

    def __init__(self, cluster, registry: MetricsRegistry):
        self.cluster = cluster
        self.registry = registry
        self._last_t: float = cluster.env.now
        self._last_appends: Dict[str, int] = {}
        self._last_records: int = -1  # -1: no baseline sample yet

    def sample(self, active_engines: Sequence[str],
               active_storage: Sequence[str]) -> Dict[str, float]:
        cluster = self.cluster
        now = cluster.env.now
        dt = now - self._last_t
        active_e = set(active_engines)
        active_s = set(active_storage)

        in_use = queued = capacity = 0
        for fnode in cluster.function_nodes:
            if fnode.name not in active_e or not fnode.node.alive:
                continue
            in_use += fnode.workers.in_use
            queued += fnode.workers.queued
            capacity += fnode.workers.capacity
        engine_util = (in_use + queued) / capacity if capacity else 0.0

        append_rate_total = 0.0
        for name, engine in sorted(cluster.engines.items()):
            appends = engine.appends_started
            delta = appends - self._last_appends.get(name, appends)
            self._last_appends[name] = appends
            rate = delta / dt if dt > 0 else 0.0
            if name in active_e:
                append_rate_total += rate
            self.registry.gauge(f"elastic.shard_rate.{name}").record(now, rate)

        records = cpu_busy = 0
        storage_cpus = 0
        for snode in cluster.storage_nodes:
            records += len(snode._by_seqnum)
            if snode.name in active_s and snode.node.alive:
                cpu_busy += snode.node.cpu.in_use
                storage_cpus += snode.node.cpu.capacity
        write_delta = records - self._last_records if self._last_records >= 0 else 0
        self._last_records = records
        write_rate = write_delta / dt if dt > 0 else 0.0
        budget = STORAGE_WRITE_BUDGET * max(1, len(active_storage))
        storage_util = write_rate / budget
        storage_busy = cpu_busy / storage_cpus if storage_cpus else 0.0

        self._last_t = now
        signals = {
            "queue_depth": float(queued),
            "demand_slots": float(in_use + queued),
            "capacity_slots": float(capacity),
            "engine_util": engine_util,
            "storage_util": storage_util,
            "storage_busy": storage_busy,
            "append_rate": append_rate_total,
            "write_rate": write_rate,
        }
        reg = self.registry
        reg.gauge("elastic.gateway.queue_depth").record(now, signals["queue_depth"])
        reg.gauge("elastic.engine.demand_slots").record(now, signals["demand_slots"])
        reg.gauge("elastic.engine.capacity_slots").record(now, signals["capacity_slots"])
        reg.gauge("elastic.engine.util").record(now, engine_util)
        reg.gauge("elastic.storage.util").record(now, storage_util)
        reg.gauge("elastic.storage.busy").record(now, storage_busy)
        reg.gauge("elastic.append_rate.total").record(now, append_rate_total)
        return signals
