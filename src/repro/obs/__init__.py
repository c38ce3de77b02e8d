"""Deterministic observability for the simulated Boki cluster.

The DES substrate makes distributed tracing uniquely cheap and exact:
virtual timestamps are deterministic, so two runs with the same seed
produce byte-identical traces, and instrumentation never perturbs the
simulated clock (spans are plain Python objects; no events are created).

Modules
-------
``trace``
    Spans with parent/child causality; a span is its own context and
    piggybacks on network messages, following a request across nodes.
``registry``
    A central :class:`MetricsRegistry` of named counters, gauges, and
    histograms.
``profile``
    DES-kernel instrumentation: events by kind, event-queue depth, and
    events per virtual second.
``export``
    Chrome ``trace_event`` JSON.
``critical_path``
    Exact critical-path extraction over a request's span tree, with
    per-component (network / sequencer / storage / engine / compute)
    attribution that sums to the end-to-end latency — the one answer to
    "where did the latency go".
``artifact``
    The spine under every deterministic document (``repro.bench/1``,
    ``repro.chaos/2``, ``repro.monitor/1``): one canonical serialisation,
    one writer, and ``mismatches`` — byte reproduction, their only gate.
``bench``
    Benchmark run artifacts and the command line:
    ``python -m repro.obs bench run | check | report``.
``recorder``
    :class:`ObsRecorder` and its ``attach`` methods: every span and
    counter of the protocol components is produced here, from their
    signals and wrap points (:mod:`repro.sim.seam`).
``monitor`` / ``alerts``
    Online invariant monitors (the offline chaos checkers replay recorded
    state through the same ones), SLO burn-rate alerting, and the flight
    recorder.
"""

from repro.obs.alerts import (
    MONITOR_SCHEMA,
    Alert,
    AlertManager,
    BurnRateRule,
    FlightRecorder,
    RULES,
    SLO,
    flight_digest,
    render_flight_record,
    validate_flight_record,
)
from repro.obs.artifact import canonical_json, mismatches, write_json
from repro.obs.bench import (
    ArtifactWriter,
    BenchmarkArtifact,
    load_artifact,
    validate_artifact,
)
from repro.obs.critical_path import (
    AttributionAggregate,
    attribute_trace,
    categorize,
    critical_path,
    critical_path_report,
)
from repro.obs.export import (
    monitor_instants,
    slowest_trace,
    to_chrome_trace,
    trace_spans,
    write_chrome_trace,
)
from repro.obs.monitor import CheckResult, MonitorHub
from repro.obs.profile import KernelProfiler
from repro.obs.recorder import ObsRecorder
from repro.obs.registry import Counter, Gauge, MetricsRegistry, registry_from_cluster
from repro.obs.trace import Span, Tracer

__all__ = [
    "Alert",
    "AlertManager",
    "ArtifactWriter",
    "AttributionAggregate",
    "BenchmarkArtifact",
    "BurnRateRule",
    "CheckResult",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "KernelProfiler",
    "MONITOR_SCHEMA",
    "MetricsRegistry",
    "MonitorHub",
    "ObsRecorder",
    "RULES",
    "SLO",
    "Span",
    "Tracer",
    "attribute_trace",
    "canonical_json",
    "categorize",
    "critical_path",
    "critical_path_report",
    "flight_digest",
    "load_artifact",
    "mismatches",
    "monitor_instants",
    "registry_from_cluster",
    "render_flight_record",
    "slowest_trace",
    "to_chrome_trace",
    "trace_spans",
    "validate_artifact",
    "validate_flight_record",
    "write_chrome_trace",
    "write_json",
]
