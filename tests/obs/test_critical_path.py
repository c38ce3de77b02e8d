"""Critical-path extraction and per-category latency attribution."""

import pytest

from repro.core.cluster import BokiCluster
from repro.obs.critical_path import (
    CATEGORIES,
    AttributionAggregate,
    attribute_trace,
    categorize,
    critical_path,
    critical_path_report,
)
from repro.obs.trace import Tracer
from repro.sim.kernel import Environment
from repro.workloads.harness import run_closed_loop


def build_layered_trace(env, tracer):
    """request [0,6] -> rpc [0.5,5.5] -> handler [1,5] -> storage [2,4]."""

    def scenario():
        root = tracer.start_trace("request", node="client", kind="request")
        yield env.timeout(0.5)
        rpc = tracer.start_span("rpc:engine.append", parent=root, node="client", kind="rpc")
        yield env.timeout(0.5)
        handler = tracer.start_span(
            "handle:engine.append", parent=rpc, node="fn-0", kind="handler"
        )
        yield env.timeout(1.0)
        media = tracer.start_span("storage.write", parent=handler, node="st-0", kind="storage")
        yield env.timeout(2.0)
        media.finish()
        yield env.timeout(1.0)
        handler.finish()
        yield env.timeout(0.5)
        rpc.finish()
        yield env.timeout(0.5)
        root.finish()

    env.run_until(env.process(scenario()), limit=60.0)
    return tracer.spans


def test_segments_partition_root_exactly():
    env = Environment()
    tracer = Tracer(env)
    spans = build_layered_trace(env, tracer)
    root = next(s for s in spans if s.parent_id is None)
    segments = critical_path(spans)
    total = sum(end - start for _, start, end in segments)
    assert total == pytest.approx(root.duration, abs=1e-12)
    # Ordered, non-overlapping, gap-free cover of the root interval.
    cursor = root.start
    for _, start, end in segments:
        assert start == pytest.approx(cursor, abs=1e-12)
        assert end > start
        cursor = end
    assert cursor == pytest.approx(root.end, abs=1e-12)


def test_attribution_charges_deepest_component():
    env = Environment()
    tracer = Tracer(env)
    spans = build_layered_trace(env, tracer)
    breakdown = attribute_trace(spans)
    assert breakdown == pytest.approx(
        {"client": 1.0, "network": 1.0, "engine": 2.0, "storage": 2.0}
    )


def test_parallel_children_not_double_counted():
    env = Environment()
    tracer = Tracer(env)

    def scenario():
        root = tracer.start_trace("request", node="client", kind="request")
        yield env.timeout(1.0)
        a = tracer.start_span("rpc:a", parent=root, node="n0", kind="rpc")
        b = tracer.start_span("rpc:b", parent=root, node="n1", kind="rpc")
        yield env.timeout(2.0)
        a.finish()
        b.finish()
        yield env.timeout(1.0)
        root.finish()

    env.run_until(env.process(scenario()), limit=60.0)
    breakdown = attribute_trace(tracer.spans)
    # The replicate-style fan-out overlaps exactly: charged once, not twice.
    assert breakdown == pytest.approx({"client": 2.0, "network": 2.0})
    assert sum(breakdown.values()) == pytest.approx(4.0, abs=1e-12)


def test_unfinished_root_yields_empty_path():
    env = Environment()
    tracer = Tracer(env)
    tracer.start_trace("request", node="client", kind="request")  # never finished
    assert critical_path(tracer.spans) == []
    assert attribute_trace(tracer.spans) == {}


def test_categorize_kinds_and_handler_methods():
    env = Environment()
    tracer = Tracer(env)

    def span_of(name, kind):
        s = tracer.start_trace(name, kind=kind)
        s.finish()
        return s

    assert categorize(span_of("rpc:x", "rpc")) == "network"
    assert categorize(span_of("seq.quorum", "sequencer")) == "sequencer"
    assert categorize(span_of("storage.read", "storage")) == "storage"
    assert categorize(span_of("engine.append", "engine")) == "engine"
    assert categorize(span_of("fn", "function")) == "compute"
    assert categorize(span_of("handle:metalog.entry", "handler")) == "sequencer"
    assert categorize(span_of("handle:engine.read", "handler")) == "engine"
    assert categorize(span_of("handle:ddb_get", "handler")) == "external"
    assert categorize(span_of("handle:mystery.op", "handler")) == "other"
    for span in tracer.spans:
        assert categorize(span) in CATEGORIES


def test_aggregate_and_report():
    env = Environment()
    tracer = Tracer(env)
    build_layered_trace(env, tracer)
    agg = AttributionAggregate()
    assert agg.add_spans(tracer.spans) == 1
    doc = agg.to_dict()
    assert doc["traces"] == 1
    assert doc["total_s"] == pytest.approx(6.0)
    assert sum(doc["categories_s"].values()) == pytest.approx(doc["total_s"])
    assert sum(doc["share"].values()) == pytest.approx(1.0)
    assert doc["roots"] == {"request": 1}

    trace_id = tracer.spans[0].trace_id
    report = critical_path_report(tracer.spans, trace_id)
    assert "storage" in report
    assert "end-to-end" in report


def test_cluster_attribution_bounded_by_e2e_latency():
    cluster = BokiCluster(
        num_function_nodes=2, num_storage_nodes=3, num_sequencer_nodes=3, seed=11
    )
    obs = cluster.enable_observability()
    cluster.boot()
    engines = list(cluster.engines.values())

    def make_op(client):
        book = cluster.logbook(1, engine=engines[client % len(engines)])

        def op():
            yield from book.append("x" * 256)

        return op

    result = run_closed_loop(
        cluster.env, make_op, num_clients=2, duration=0.05, obs=obs
    )
    assert result.completed > 0
    for latency, trace_id in result.extra["request_traces"]:
        breakdown = attribute_trace(obs.tracer.spans, trace_id=trace_id)
        attributed = sum(breakdown.values())
        # Attribution covers the request exactly — never more than the
        # measured end-to-end latency.
        assert attributed <= latency + 1e-9
        assert attributed == pytest.approx(latency, rel=1e-9)
