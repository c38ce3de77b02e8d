"""Every metric the ledger emits: name, unit, direction and, for the
end-to-end ones, the bound. ``BENCHMARK.json`` at the repo root is
generated from this module (``python -m benchmarks.perf manifest``); a
self-test keeps the two equal. What each metric means, and which
end-to-end metric each per-layer metric is predicted to move on which
workload, is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from benchmarks.perf.ladder import LAYER_SWITCHES, RUNGS
from benchmarks.perf.layers import LAYERS
from benchmarks.perf.workloads import WORKLOADS

DEFAULT_SEED = 0
#: Seconds one driver-contract run measures (``run_seconds``).
RUN_SECONDS = 10


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end only: the share of the base value by which the metric
    #: may worsen before it counts as a regression.
    bound: Optional[float] = None
    #: Absolute differences below this never count as a change.
    floor: float = 0.0


#: host_refev_per_op, peak_rss_mb and setup_s vary with the host; the
#: modelled (virt_*) metrics and events_per_op repeat exactly for a seed,
#: and their bounds only leave room for the spread across *seeds*, which
#: is what the driver samples: each is about three times the widest
#: IQR/median seen over ten seeds on any workload (README, last section).
END_TO_END: List[Metric] = [
    Metric("host_refev_per_op", "refev/op", "lower", 0.20),
    Metric("events_per_op", "events/op", "lower", 0.05),
    Metric("virt_ops_per_s", "ops/virt_s", "higher", 0.15),
    Metric("virt_mean_ms", "virt_ms", "lower", 0.10),
    Metric("virt_p99_ms", "virt_ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25, floor=0.1),
]

_COUNTERS: List[Metric] = [
    Metric("bench.trace_overhead_ratio", "ratio", "lower"),
    Metric("sim.kernel.heap_depth_max", "events", "lower"),
    Metric("sim.kernel.heap_depth_mean", "events", "lower"),
    Metric("sim.kernel.events_per_virt_s", "events/virt_s", "lower"),
    Metric("sim.network.msgs_per_op", "msgs/op", "lower"),
    Metric("core.engine.cache_hit_ratio", "share", "higher"),
    Metric("core.engine.remote_read_share", "share", "lower"),
    Metric("core.index.lookups_per_op", "lookups/op", "lower"),
    Metric("core.storage.records_per_append", "records/append", "lower"),
    Metric("core.sequencer.metalog_entries_per_virt_s", "entries/virt_s", "lower"),
    Metric("core.sequencer.appends_per_metalog_entry", "appends/entry", "higher"),
    Metric("faas.gateway.inflight_peak", "count", "lower"),
    Metric("faas.worker.queue_depth_peak", "count", "lower"),
    Metric("admission.shed_share", "share", "lower"),
    Metric("obs.spans_per_op", "spans/op", "lower"),
    Metric("bench.host_us_per_op", "us/op", "lower"),
    Metric("bench.ref_us_per_event", "us/event", "lower"),
    Metric("bench.noise_iqr_share", "share", "lower"),
]


def per_layer() -> List[Metric]:
    metrics: List[Metric] = []
    for layer in LAYERS:
        metrics.append(Metric(f"self_share.{layer}", "share", "lower"))
        metrics.append(Metric(f"calls_per_op.{layer}", "calls/op", "lower"))
    metrics += _COUNTERS
    for rung in RUNGS:
        if not rung.name.startswith("ladder.layer."):
            metrics.append(Metric(f"{rung.name}.refev_per_op", "refev/op", "lower"))
            metrics.append(Metric(f"{rung.name}.events_per_op", "events/op", "lower"))
    for layer in LAYER_SWITCHES:
        metrics.append(Metric(f"ladder.layer.{layer}.overhead_ratio", "ratio", "lower"))
        metrics.append(Metric(f"ladder.layer.{layer}.extra_events_per_op", "events/op", "lower"))
    return metrics


def units() -> Dict[str, str]:
    return {m.name: m.unit for m in END_TO_END + per_layer()}


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in per_layer()
        ],
    }
