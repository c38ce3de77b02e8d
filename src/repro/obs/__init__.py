"""Deterministic observability for the simulated Boki cluster.

The DES substrate makes distributed tracing uniquely cheap and exact:
virtual timestamps are deterministic, so two runs with the same seed
produce byte-identical traces, and instrumentation never perturbs the
simulated clock (spans are plain Python objects; no events are created).

Modules
-------
``trace``
    Spans with parent/child causality and a :class:`SpanContext` that
    piggybacks on network messages, following a request across nodes.
``registry``
    A central :class:`MetricsRegistry` of named counters, gauges, and
    histograms.
``profile``
    DES-kernel instrumentation: event-queue depth, events per virtual
    second, and per-node CPU busy time.
``export``
    Chrome ``trace_event`` JSON and plain-text latency attribution.
``critical_path``
    Exact critical-path extraction over a request's span tree, with
    per-component (network / sequencer / storage / engine / compute)
    attribution that sums to the end-to-end latency.
``bench``
    Benchmark run artifacts, committed baselines, and the
    improved/unchanged/regressed comparator behind
    ``python -m repro.obs bench run|compare|report``.
``recorder``
    :class:`ObsRecorder` and its ``attach`` methods: every span and
    counter of the protocol components is produced here, from their
    signals and wrap points (:mod:`repro.sim.seam`).
``monitor`` / ``alerts``
    Online invariant monitors (incremental shadows of the offline chaos
    checkers), SLO burn-rate alerting, and the flight recorder.
"""

from repro.obs.alerts import (
    MONITOR_SCHEMA,
    Alert,
    AlertManager,
    BurnRateRule,
    FlightRecorder,
    SLO,
    default_rules,
    flight_record_to_json,
    render_flight_record,
    validate_flight_record,
)
from repro.obs.bench import (
    ArtifactWriter,
    BenchmarkArtifact,
    MetricDelta,
    compare_artifacts,
    load_artifact,
    validate_artifact,
    wall_block,
)
from repro.obs.critical_path import (
    AttributionAggregate,
    attribute_trace,
    categorize,
    critical_path,
    critical_path_report,
)
from repro.obs.export import (
    attribution_report,
    monitor_instants,
    queue_counters,
    tenant_counters,
    self_times,
    slowest_trace,
    to_chrome_trace,
    trace_spans,
    write_chrome_trace,
)
from repro.obs.monitor import MonitorHub, MonitorResult
from repro.obs.profile import KernelProfiler, NodeProfile
from repro.obs.recorder import ObsRecorder
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry, registry_from_cluster
from repro.obs.trace import Span, SpanContext, Tracer

__all__ = [
    "Alert",
    "AlertManager",
    "ArtifactWriter",
    "AttributionAggregate",
    "BenchmarkArtifact",
    "BurnRateRule",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "KernelProfiler",
    "MONITOR_SCHEMA",
    "MetricDelta",
    "MetricsRegistry",
    "MonitorHub",
    "MonitorResult",
    "NodeProfile",
    "ObsRecorder",
    "SLO",
    "Span",
    "SpanContext",
    "Tracer",
    "attribute_trace",
    "attribution_report",
    "categorize",
    "compare_artifacts",
    "critical_path",
    "critical_path_report",
    "default_rules",
    "flight_record_to_json",
    "load_artifact",
    "monitor_instants",
    "queue_counters",
    "tenant_counters",
    "registry_from_cluster",
    "render_flight_record",
    "self_times",
    "slowest_trace",
    "to_chrome_trace",
    "trace_spans",
    "validate_artifact",
    "validate_flight_record",
    "wall_block",
    "write_chrome_trace",
]
