"""Per-layer accounting: where host time goes, and what each layer did.

Two instruments, both outside the program:

- :func:`fold_profile` folds a ``cProfile`` run by source path into the
  repo's layers (module names), giving each layer's share of self time
  and its function-call count — the latter repeats exactly for a seed.
- :func:`surface` / :func:`counter_metrics` read component counters from
  public surfaces (``cluster.metrics_snapshot()``, the gateway, the
  admission controller, the tracer's span list) before and after the
  timed region and turn the deltas into per-op ratios.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

#: Layers in reporting order. ``bench`` is this benchmark's own load
#: generator; ``builtin`` everything else outside ``src/repro`` (heapq,
#: deepcopy, hashing, the interpreter's C functions).
LAYERS = [
    "sim.kernel", "sim.network",
    "core.engine", "core.storage", "core.sequencer", "core.index",
    "core.logbook", "core.types",
    "faas", "libs.bokistore",
    "obs", "resil", "admission", "tenant",
    "workloads", "other", "bench", "builtin",
]

#: Longest-prefix-wins map from a path under ``src/repro/`` to its layer;
#: anything under ``src/repro/`` that matches nothing is ``other``
#: (cluster assembly, controller, placement, coord, remaining libs).
_REPRO_PREFIXES: List[Tuple[str, str]] = sorted({
    "sim/network.py": "sim.network",
    "sim/": "sim.kernel",
    "core/engine.py": "core.engine",
    "core/cache.py": "core.engine",
    "core/storage.py": "core.storage",
    "core/sequencer.py": "core.sequencer",
    "core/metalog.py": "core.sequencer",
    "core/ordering.py": "core.sequencer",
    "core/index.py": "core.index",
    "core/logbook.py": "core.logbook",
    "core/types.py": "core.types",
    "core/hashing.py": "core.types",
    "faas/": "faas",
    "libs/bokistore/": "libs.bokistore",
    "obs/": "obs",
    "monitor/": "obs",
    "resil/": "resil",
    "admission/": "admission",
    "tenant/": "tenant",
    "workloads/": "workloads",
}.items(), key=lambda item: -len(item[0]))

_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep
_BENCH_MARK = os.sep + os.path.join("benchmarks", "perf") + os.sep


def layer_of(path: str) -> str:
    """The layer a source path belongs to; total (never raises)."""
    _, mark, rest = path.rpartition(_REPRO_MARK)
    if mark:
        rest = rest.replace(os.sep, "/")
        for prefix, layer in _REPRO_PREFIXES:
            if rest.startswith(prefix):
                return layer
        return "other"
    if _BENCH_MARK in path:
        return "bench"
    return "builtin"


def fold_profile(profile, ops: int) -> Dict[str, float]:
    """``self_share.<layer>`` and ``calls_per_op.<layer>`` of a finished
    ``cProfile.Profile``. The profiler's own ``disable`` call is dropped
    so shares cover the profiled work only."""
    self_time = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):
            if "_lsprof.Profiler" in code:
                continue
            layer = "builtin"
        else:
            layer = layer_of(code.co_filename)
        self_time[layer] += entry.inlinetime
        calls[layer] += entry.callcount
    total = sum(self_time.values())
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"self_share.{layer}"] = self_time[layer] / total
        metrics[f"calls_per_op.{layer}"] = calls[layer] / ops
    return metrics


def surface(run) -> Dict[str, float]:
    """Cumulative counters of a cluster, from public surfaces only."""
    cluster = run.cluster
    snapshot = cluster.metrics_snapshot()

    def total(prefix: str, suffix: str) -> float:
        return sum(
            snapshot.value(name) for name in snapshot.names(prefix) if name.endswith(suffix)
        )

    return {
        "messages": snapshot.value("net.messages_sent"),
        "appends": total("engine.", ".appends_started"),
        "reads": total("engine.", ".reads_served"),
        "remote_reads": total("engine.", ".remote_reads"),
        "cache_hits": total("engine.", ".cache.hits"),
        "cache_misses": total("engine.", ".cache.misses"),
        "lookups": total("engine.", ".lookups"),
        "stored": total("storage.", ".records"),
        # Only a log's primary sequencer counts the entries it orders.
        "metalog_entries": total("sequencer.", ".entries_appended"),
        "gateway_peak": snapshot.value("queue.gateway.inflight_peak"),
        "shed": cluster.admission.total_shed() if cluster.admission is not None else 0,
        "spans": len(cluster.obs.tracer.spans) if cluster.obs is not None else 0,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(before: Dict[str, float], after: Dict[str, float],
                    worker_depth_peak: float, ops: int, attempted: int,
                    duration: float) -> Dict[str, float]:
    """Per-layer counters over the timed region (``after`` - ``before``)."""
    d = {key: after[key] - before[key] for key in after}
    return {
        "sim.network.msgs_per_op": _ratio(d["messages"], ops),
        "core.engine.cache_hit_ratio": _ratio(
            d["cache_hits"], d["cache_hits"] + d["cache_misses"]),
        "core.engine.remote_read_share": _ratio(d["remote_reads"], d["reads"]),
        "core.index.lookups_per_op": _ratio(d["lookups"], ops),
        "core.storage.records_per_append": _ratio(d["stored"], d["appends"]),
        "core.sequencer.metalog_entries_per_virt_s": d["metalog_entries"] / duration,
        "core.sequencer.appends_per_metalog_entry": _ratio(d["appends"], d["metalog_entries"]),
        "faas.gateway.inflight_peak": after["gateway_peak"],
        "faas.worker.queue_depth_peak": worker_depth_peak,
        "admission.shed_share": _ratio(d["shed"], attempted),
        "obs.spans_per_op": _ratio(d["spans"], ops),
    }
