"""End-to-end observability on a full cluster.

Covers the acceptance bar of the obs subsystem: traced runs export valid
Chrome JSON, each request's critical path sums to its recorded
end-to-end latency, and enabling tracing changes no virtual-time
result (same-seed runs are byte-identically exported).
"""

import json

import pytest

from repro.core.cluster import BokiCluster
from repro.obs.critical_path import critical_path, critical_path_report
from repro.obs.export import to_chrome_trace, trace_spans
from repro.workloads.harness import dump_slowest_trace, run_closed_loop

RECORD = "x" * 256


def make_cluster(seed=11):
    cluster = BokiCluster(
        num_function_nodes=2, num_storage_nodes=3, num_sequencer_nodes=3, seed=seed
    )
    return cluster


def traced_append_run(seed=11, enable_obs=True):
    cluster = make_cluster(seed)
    obs = cluster.enable_observability() if enable_obs else None
    cluster.boot()
    engines = list(cluster.engines.values())

    def make_op(client):
        book = cluster.logbook(1, engine=engines[client % len(engines)])

        def one_append():
            yield from book.append(RECORD)

        return one_append

    result = run_closed_loop(
        cluster.env, make_op, num_clients=2, duration=0.05, obs=obs
    )
    return cluster, obs, result


def test_traced_run_produces_request_traces():
    cluster, obs, result = traced_append_run()
    assert cluster.enable_observability() is obs  # idempotent
    assert result.completed > 0
    traces = result.extra["request_traces"]
    assert len(traces) == result.completed
    for latency, trace_id in traces:
        roots = [s for s in trace_spans(obs.tracer.spans, trace_id) if s.parent_id is None]
        assert len(roots) == 1
        # The root span brackets exactly the measured request.
        assert roots[0].duration == pytest.approx(latency, abs=0.0)
        assert roots[0].status == "ok"


def test_untraced_run_has_no_request_traces():
    cluster, obs, result = traced_append_run(enable_obs=False)
    assert "request_traces" not in result.extra


def test_spans_cover_all_layers():
    cluster, obs, result = traced_append_run()
    _, trace_id = result.extra["request_traces"][0]
    names = {s.name for s in trace_spans(obs.tracer.spans, trace_id)}
    assert "request" in names
    assert "engine.append" in names
    assert "engine.replicate" in names
    assert any(n.startswith("rpc:") for n in names)
    assert any(n.startswith("handle:") for n in names)
    # Background metalog ordering shows up as separate sequencer traces.
    assert any(s.name == "seq.quorum" for s in obs.tracer.spans)


def test_attribution_consistent_with_e2e_latency():
    cluster, obs, result = traced_append_run()
    for latency, trace_id in result.extra["request_traces"]:
        segments = critical_path(obs.tracer.spans, trace_id=trace_id)
        # The critical path partitions the root's interval: its segments
        # sum to the request latency exactly, never past it.
        assert sum(end - start for _, start, end in segments) == pytest.approx(
            latency, abs=1e-12)
        report = critical_path_report(obs.tracer.spans, trace_id)
        assert f"end-to-end {latency * 1e3:.3f} ms" in report


def test_chrome_export_valid_and_nested():
    cluster, obs, result = traced_append_run()
    _, trace_id = result.extra["request_traces"][0]
    doc = json.loads(to_chrome_trace(obs.tracer.spans, trace_id=trace_id))
    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert events
    by_id = {e["args"]["span_id"]: e for e in events}
    for event in events:
        assert event["dur"] >= 0
        parent_id = event["args"].get("parent_id")
        if parent_id is not None and parent_id in by_id:
            parent = by_id[parent_id]
            assert event["ts"] >= parent["ts"]


def test_same_seed_exports_are_byte_identical():
    _, obs_a, result_a = traced_append_run(seed=23)
    _, obs_b, result_b = traced_append_run(seed=23)
    assert result_a.completed == result_b.completed
    assert to_chrome_trace(obs_a.tracer.spans) == to_chrome_trace(obs_b.tracer.spans)
    for (_, trace_a), (_, trace_b) in zip(result_a.extra["request_traces"],
                                          result_b.extra["request_traces"]):
        assert critical_path_report(obs_a.tracer.spans, trace_a) == (
            critical_path_report(obs_b.tracer.spans, trace_b))


def test_tracing_does_not_change_virtual_time_results():
    _, _, traced = traced_append_run(seed=29, enable_obs=True)
    _, _, plain = traced_append_run(seed=29, enable_obs=False)
    assert traced.completed == plain.completed
    assert traced.errors == plain.errors
    assert traced.latencies.samples == plain.latencies.samples


def test_dump_slowest_trace(tmp_path):
    cluster, obs, result = traced_append_run()
    chrome_json, report = dump_slowest_trace(
        result, obs, path=str(tmp_path / "slowest")
    )
    doc = json.loads(chrome_json)
    slowest_latency = max(lat for lat, _ in result.extra["request_traces"])
    assert f"end-to-end {slowest_latency * 1e3:.3f} ms" in report
    assert (tmp_path / "slowest.json").read_text() == chrome_json
    assert (tmp_path / "slowest.txt").read_text() == report
    assert any(e["ph"] == "X" for e in doc["traceEvents"])


def test_quorum_round_cut_by_a_crash_is_closed_with_error():
    cluster = make_cluster()
    obs = cluster.enable_observability()
    cluster.boot()
    engines = list(cluster.engines.values())
    rounds = []  # seq.replicate requests: each one's rpc: span is a round's child
    cluster.net.message_sent.subscribe(
        lambda msg, is_rpc: rounds.append(msg) if msg.method == "seq.replicate" else None)

    def appender(book):
        while True:
            yield from book.append(RECORD)

    for i in range(8):
        cluster.env.process(appender(cluster.logbook(1, engine=engines[i % len(engines)])))
    while not rounds:
        cluster.env.step()
    cluster.net.node(rounds[0].src).crash()  # the primary, mid-round
    cluster.env.run(until=cluster.env.now + 0.5)

    by_id = {s.span_id: s for s in obs.tracer.spans}
    rpc = by_id[rounds[0].trace_ctx.span_id]  # timed out: nobody was left to hear the reply
    assert rpc.name == "rpc:seq.replicate" and rpc.parent_id in by_id, (
        "the round the crash cut was never finished, so no export holds it")
    quorum = by_id[rpc.parent_id]
    assert (quorum.name, quorum.status) == ("seq.quorum", "error")
    assert "Interrupt" in quorum.attrs["error"]
