"""Shared helpers for the benchmark harness.

Every benchmark reproduces one table or figure from the paper's evaluation
(§7) at laptop scale: node counts, client counts, and durations are scaled
down (the exact factors are recorded in EXPERIMENTS.md), and all times are
*virtual* (simulated) seconds, so results are deterministic for a given
seed and independent of host speed. Absolute numbers therefore differ from
the paper; the assertions check the paper's qualitative claims — who wins,
by roughly what factor, where trends bend.

Run with: ``pytest benchmarks/ --benchmark-only``
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.baselines.dynamodb import DynamoDBService
from repro.core import BokiCluster, BokiConfig
from repro.obs.bench import (
    ArtifactWriter,
    BenchmarkArtifact,
    info,
    lat_ms,
    metric,
    throughput,
)
from repro.obs.critical_path import AttributionAggregate


def print_table(title: str, headers: Sequence[str], rows: List[Sequence[Any]]) -> None:
    """Render a paper-style results table to stdout."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) if rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    print()


def ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}ms"


def kops(per_second: float) -> str:
    return f"{per_second / 1e3:.1f}K"


def make_cluster(
    num_function_nodes: int = 4,
    num_storage_nodes: int = 4,
    num_sequencer_nodes: int = 3,
    num_logs: int = 1,
    index_engines_per_log: Optional[int] = None,
    config: Optional[BokiConfig] = None,
    seed: int = 0,
    workers_per_node: int = 64,
    with_dynamodb: bool = False,
    obs: bool = False,
) -> BokiCluster:
    """Boot a benchmark cluster.

    Tracing never perturbs virtual time (see ``repro.obs``), so the
    numbers are identical either way — but it costs about 2x the wall time
    and 3x the memory, so only a benchmark whose artifact is compared on
    its critical-path attribution block (the committed baselines) passes
    ``obs=True``. The previous cluster's spans are folded into the session
    aggregate here and released, so memory stays bounded at one cluster's
    traces.
    """
    cluster = BokiCluster(
        num_function_nodes=num_function_nodes,
        num_storage_nodes=num_storage_nodes,
        num_sequencer_nodes=num_sequencer_nodes,
        num_logs=num_logs,
        index_engines_per_log=index_engines_per_log,
        config=config,
        seed=seed,
        workers_per_node=workers_per_node,
    )
    if obs:
        cluster.enable_observability()
    if with_dynamodb:
        DynamoDBService(cluster.env, cluster.net, cluster.streams)
    cluster.boot()
    _harvest_last_cluster()
    _SESSION["last_cluster"] = cluster
    return cluster


def adopt_cluster(cluster) -> "BokiCluster":
    """Register a cluster built directly (not via :func:`make_cluster`)
    for artifact harvesting — benchmarks that need constructor knobs
    ``make_cluster`` does not expose (e.g. spare nodes for elasticity)
    still contribute counters and critical-path spans this way. Call it
    after ``boot()``. Every adopter's committed baseline carries an
    attribution block, so observability is switched on here."""
    if cluster.obs is None:
        cluster.enable_observability()
    _harvest_last_cluster()
    _SESSION["last_cluster"] = cluster
    return cluster


def run_once(benchmark, fn):
    """Wrap a whole experiment as a single pytest-benchmark round."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


# ----------------------------------------------------------------------
# Benchmark artifacts (repro.obs.bench)
# ----------------------------------------------------------------------
#: Telemetry gathered while the current benchmark runs: critical-path
#: attribution over every traced cluster plus summed component counters.
_SESSION: Dict[str, Any] = {
    "attribution": AttributionAggregate(),
    "counters": {},
    "clusters": 0,
    "last_cluster": None,
}


def reset_artifact_session() -> None:
    """Start telemetry afresh (called around each benchmark by conftest)."""
    _SESSION["attribution"] = AttributionAggregate()
    _SESSION["counters"] = {}
    _SESSION["clusters"] = 0
    _SESSION["last_cluster"] = None


def _counter_key(name: str) -> Optional[str]:
    """Fold a per-node metric name into its cluster-wide aggregate key
    (``engine.func-0.cache.hits`` -> ``engine.cache.hits``); None for
    point-in-time values that make no sense summed across clusters."""
    parts = name.split(".")
    if parts[0] in ("engine", "storage", "sequencer") and len(parts) > 2:
        rest = [p for p in parts[2:] if not p.isdigit()]
        return ".".join([parts[0], *rest])
    if parts[0] == "net":
        return name
    return None


def _harvest_last_cluster() -> None:
    cluster = _SESSION.get("last_cluster")
    if cluster is None:
        return
    _SESSION["last_cluster"] = None
    _SESSION["clusters"] += 1
    counters = _SESSION["counters"]
    for name, value in cluster.metrics_snapshot().snapshot().items():
        key = _counter_key(name)
        if key is not None:
            counters[key] = counters.get(key, 0) + value
    if cluster.obs is not None:
        tracer = cluster.obs.tracer
        _SESSION["attribution"].add_spans(tracer.spans)
        tracer.spans.clear()


def run_result_metrics(prefix: str, result) -> Dict[str, Dict[str, Any]]:
    """Headline metrics of a harness ``RunResult``: throughput + p50/p99."""
    out = {f"{prefix}.throughput": throughput(result.throughput)}
    if result.latencies.count:
        out[f"{prefix}.p50_ms"] = lat_ms(result.median_latency())
        out[f"{prefix}.p99_ms"] = lat_ms(result.p99_latency())
    return out


def recorder_metrics(prefix: str, recorder) -> Dict[str, Dict[str, Any]]:
    """p50/p99 latency metrics of a ``LatencyRecorder``."""
    summary = recorder.summary_dict()
    return {
        f"{prefix}.p50_ms": lat_ms(summary["p50"]),
        f"{prefix}.p99_ms": lat_ms(summary["p99"]),
    }


def emit_artifact(
    benchmark_id: str,
    metrics: Dict[str, Dict[str, Any]],
    title: str = "",
    config: Optional[Dict[str, Any]] = None,
    seed: int = 0,
    out_dir: Optional[str] = None,
) -> str:
    """Write this benchmark's machine-readable artifact and return its path.

    ``metrics`` maps names to :func:`repro.obs.bench.metric` dicts (use the
    ``lat_ms`` / ``throughput`` / ``info`` helpers). Counter totals and the
    critical-path attribution block are filled in from every cluster the
    benchmark created via :func:`make_cluster`. The output directory is
    ``$REPRO_BENCH_DIR`` or ``bench/artifacts``.
    """
    _harvest_last_cluster()
    attribution = _SESSION["attribution"]
    counters = dict(sorted(_SESSION["counters"].items()))
    counters["clusters"] = _SESSION["clusters"]
    artifact = BenchmarkArtifact(
        benchmark_id=benchmark_id,
        title=title,
        seed=seed,
        config=config or {},
        metrics=metrics,
        counters=counters,
        critical_path=attribution.to_dict() if attribution.traces else None,
    )
    path = ArtifactWriter(out_dir).write(artifact)
    print(f"[bench] artifact written: {path}")
    return path


__all__ = [
    "adopt_cluster",
    "emit_artifact",
    "info",
    "kops",
    "lat_ms",
    "make_cluster",
    "metric",
    "ms",
    "print_table",
    "recorder_metrics",
    "reset_artifact_session",
    "run_once",
    "run_result_metrics",
    "throughput",
]
