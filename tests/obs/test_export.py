"""The Chrome trace exporter and its trace-selection helpers."""

import json

import pytest

from repro.obs.export import (
    slowest_trace,
    to_chrome_trace,
    trace_spans,
    write_chrome_trace,
)
from repro.obs.trace import STATUS_OK, Tracer
from repro.sim.kernel import Environment


def build_trace(env, tracer):
    """root [0, 4] with overlapping children a,b [1, 3] on two nodes."""

    def scenario():
        root = tracer.start_trace("root", node="client")
        yield env.timeout(1.0)
        a = tracer.start_span("a", parent=root, node="n0")
        b = tracer.start_span("b", parent=root, node="n1")
        yield env.timeout(2.0)
        a.finish()
        b.finish()
        yield env.timeout(1.0)
        root.finish()

    env.run_until(env.process(scenario()), limit=10.0)


def test_trace_spans_ordered_and_filtered():
    env = Environment()
    tracer = Tracer(env)
    build_trace(env, tracer)
    other = tracer.start_trace("unrelated")
    other.finish()
    tid = next(s for s in tracer.spans if s.parent_id is None).trace_id
    spans = trace_spans(tracer.spans, tid)
    assert [s.name for s in spans] == ["root", "a", "b"]


def test_slowest_trace_picks_longest_root():
    env = Environment()
    tracer = Tracer(env)

    def scenario():
        quick = tracer.start_trace("quick")
        yield env.timeout(0.5)
        quick.finish()
        slow = tracer.start_trace("slow")
        yield env.timeout(5.0)
        slow.finish()
        return slow.trace_id

    slow_tid = env.run_until(env.process(scenario()), limit=10.0)
    assert slowest_trace(tracer.spans) == slow_tid
    assert slowest_trace([]) is None


def test_chrome_trace_structure():
    env = Environment()
    tracer = Tracer(env)
    build_trace(env, tracer)
    doc = json.loads(to_chrome_trace(tracer.spans))
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    assert {e["args"]["name"] for e in meta} == {"client", "n0", "n1"}
    assert len(complete) == 3
    root = next(e for e in complete if e["name"] == "root")
    assert root["ts"] == 0.0
    assert root["dur"] == pytest.approx(4.0 * 1e6)  # microseconds
    assert root["args"]["status"] == STATUS_OK
    child = next(e for e in complete if e["name"] == "a")
    assert child["args"]["parent_id"] == root["args"]["span_id"]
    assert child["tid"] == root["tid"]  # same trace, same lane


def test_chrome_trace_deterministic_and_filterable():
    def build():
        env = Environment()
        tracer = Tracer(env)
        build_trace(env, tracer)
        return tracer

    first, second = build(), build()
    assert to_chrome_trace(first.spans) == to_chrome_trace(second.spans)
    tid = next(s for s in first.spans if s.parent_id is None).trace_id
    doc = json.loads(to_chrome_trace(first.spans, trace_id=tid))
    assert all(
        e["args"]["trace_id"] == tid for e in doc["traceEvents"] if e["ph"] == "X"
    )


def test_write_chrome_trace(tmp_path):
    env = Environment()
    tracer = Tracer(env)
    build_trace(env, tracer)
    path = tmp_path / "trace.json"
    text = write_chrome_trace(str(path), tracer.spans)
    assert path.read_text() == text
    json.loads(text)
