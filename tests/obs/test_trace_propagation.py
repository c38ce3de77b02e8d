"""Trace-context propagation across processes, nodes, and failure paths.

The span tree must follow a request through RPC fan-out and stay correct
when the destination is crashed, the link is partitioned, or the handler
raises — the cases where latency debugging matters most.
"""

from repro.obs.recorder import ObsRecorder
from repro.obs.trace import (
    STATUS_DROPPED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    failure_status,
)
from repro.sim.kernel import Environment
from repro.sim.network import Network, RpcError, RpcTimeout
from repro.sim.node import Node
from repro.sim.randvar import RandomStreams


def make_net(num_nodes=2, seed=1):
    env = Environment()
    net = Network(env, RandomStreams(seed=seed))
    obs = ObsRecorder(env)
    obs.attach_network(net)
    nodes = [net.register(Node(env, f"n{i}", cpu_capacity=4)) for i in range(num_nodes)]
    return env, net, obs, nodes


def spans_by_name(obs):
    return {s.name: s for s in obs.tracer.spans}


def test_rpc_success_builds_one_trace():
    env, net, obs, (a, b) = make_net()
    b.handle("ping", lambda payload: payload + 1)

    def driver():
        span = obs.tracer.start_trace("request", node="client")
        obs.tracer.set_process_context(span)
        value = yield net.rpc(a, b, "ping", 41)
        span.finish()
        return value

    proc = env.process(driver())
    assert env.run_until(proc, limit=5.0) == 42
    by_name = spans_by_name(obs)
    root, rpc, handle = by_name["request"], by_name["rpc:ping"], by_name["handle:ping"]
    assert rpc.parent_id == root.span_id
    assert handle.parent_id == rpc.span_id
    assert {s.trace_id for s in obs.tracer.spans} == {root.trace_id}
    assert root.status == rpc.status == handle.status == STATUS_OK
    assert root.start <= rpc.start <= handle.start
    assert handle.end <= rpc.end <= root.end
    assert rpc.node == "n0" and handle.node == "n1"


def test_nested_rpc_keeps_trace_id():
    env, net, obs, (a, b, c) = make_net(num_nodes=3)
    c.handle("inner", lambda payload: payload * 2)

    def outer(payload):
        value = yield net.rpc(b, c, "inner", payload)
        return value + 1

    b.handle("outer", outer)

    def driver():
        span = obs.tracer.start_trace("request", node="client")
        obs.tracer.set_process_context(span)
        value = yield net.rpc(a, b, "outer", 10)
        span.finish()
        return value

    proc = env.process(driver())
    assert env.run_until(proc, limit=5.0) == 21
    by_name = spans_by_name(obs)
    assert {s.trace_id for s in obs.tracer.spans} == {by_name["request"].trace_id}
    # The inner rpc is issued from within the outer handler's process, so
    # it parents under the outer handle span.
    assert by_name["rpc:inner"].parent_id == by_name["handle:outer"].span_id
    assert by_name["handle:inner"].parent_id == by_name["rpc:inner"].span_id


def test_rpc_to_crashed_node_times_out_with_drop_span():
    env, net, obs, (a, b) = make_net()
    b.handle("ping", lambda payload: payload)
    b.crash()

    def driver():
        span = obs.tracer.start_trace("request", node="client")
        obs.tracer.set_process_context(span)
        try:
            yield net.rpc(a, b, "ping", 1, timeout=0.01)
        except RpcTimeout:
            span.finish(STATUS_TIMEOUT)
            return "timed out"
        span.finish()
        return "ok"

    proc = env.process(driver())
    assert env.run_until(proc, limit=5.0) == "timed out"
    by_name = spans_by_name(obs)
    root, rpc, drop = by_name["request"], by_name["rpc:ping"], by_name["drop:ping"]
    assert root.status == STATUS_TIMEOUT
    assert rpc.status == STATUS_TIMEOUT
    assert rpc.attrs["timeout"] == 0.01
    assert drop.status == STATUS_DROPPED
    assert drop.attrs["reason"] == "down"
    assert drop.trace_id == root.trace_id
    assert drop.parent_id == rpc.span_id
    assert obs.metrics.value("net.rpc.timeouts") == 1
    assert obs.metrics.value("net.drops") == 1


def test_rpc_across_partition_drop_reason():
    env, net, obs, (a, b) = make_net()
    b.handle("ping", lambda payload: payload)
    net.partition("n0", "n1")

    def driver():
        span = obs.tracer.start_trace("request", node="client")
        obs.tracer.set_process_context(span)
        try:
            yield net.rpc(a, b, "ping", 1, timeout=0.01)
        except RpcTimeout:
            span.finish(STATUS_TIMEOUT)
        return None

    env.run_until(env.process(driver()), limit=5.0)
    drop = spans_by_name(obs)["drop:ping"]
    assert drop.status == STATUS_DROPPED
    assert drop.attrs["reason"] == "partition"


def test_handler_exception_closes_spans_with_error():
    env, net, obs, (a, b) = make_net()

    def bad(payload):
        raise ValueError("boom")

    b.handle("ping", bad)

    def driver():
        span = obs.tracer.start_trace("request", node="client")
        obs.tracer.set_process_context(span)
        try:
            yield net.rpc(a, b, "ping", 1)
        except RpcError:
            span.finish(STATUS_ERROR)
            return "failed"
        span.finish()
        return "ok"

    proc = env.process(driver())
    assert env.run_until(proc, limit=5.0) == "failed"
    by_name = spans_by_name(obs)
    assert by_name["handle:ping"].status == STATUS_ERROR
    assert "boom" in by_name["handle:ping"].attrs["error"]
    assert by_name["rpc:ping"].status == STATUS_ERROR


def test_oneway_send_propagates_and_drops():
    env, net, obs, (a, b) = make_net()
    seen = []
    b.handle("notify", seen.append)

    def driver():
        span = obs.tracer.start_trace("request", node="client")
        obs.tracer.set_process_context(span)
        net.send(a, b, "notify", "hello")
        yield env.timeout(0.01)
        span.finish()
        root_trace = span.trace_id
        # Second send lands on a crashed node -> drop span, same trace.
        span2 = obs.tracer.start_trace("request2", node="client")
        obs.tracer.set_process_context(span2)
        b.crash()
        net.send(a, b, "notify", "lost")
        yield env.timeout(0.01)
        span2.finish()
        return root_trace

    root_trace = env.run_until(env.process(driver()), limit=5.0)
    assert seen == ["hello"]
    by_name = spans_by_name(obs)
    assert by_name["handle:notify"].trace_id == root_trace
    assert by_name["handle:notify"].status == STATUS_OK
    drop = by_name["drop:notify"]
    assert drop.status == STATUS_DROPPED
    assert drop.trace_id == spans_by_name(obs)["request2"].trace_id


def test_oneway_generator_handler_span_closes_on_error():
    env, net, obs, (a, b) = make_net()

    def gen_handler(payload):
        yield env.timeout(0.001)
        raise RuntimeError("late failure")

    b.handle("work", gen_handler)

    def driver():
        span = obs.tracer.start_trace("request", node="client")
        obs.tracer.set_process_context(span)
        net.send(a, b, "work", None)
        yield env.timeout(0.05)
        span.finish()

    env.run_until(env.process(driver()), limit=5.0)
    handle = spans_by_name(obs)["handle:work"]
    assert handle.status == STATUS_ERROR
    assert "late failure" in handle.attrs["error"]


def test_span_scope_restores_context_and_maps_timeout():
    env, net, obs, (a, b) = make_net()
    b.handle("ping", lambda payload: payload)
    b.crash()

    def driver():
        root = obs.tracer.start_trace("request", node="client")
        obs.tracer.set_process_context(root)
        step = obs.tracer.start_span("step", node="client")
        assert obs.tracer.set_process_context(step) is root
        assert obs.tracer.current_context() is step
        try:
            yield net.rpc(a, b, "ping", 1, timeout=0.01)
        except RpcTimeout as exc:
            obs.tracer.set_process_context(root)
            step.finish(failure_status(exc), error=repr(exc))
        # The step's rpc parented under it, and the root is ambient again.
        assert spans_by_name(obs)["rpc:ping"].parent_id == step.span_id
        assert obs.tracer.current_context() is root
        root.finish()
        return True

    assert env.run_until(env.process(driver()), limit=5.0)
    step = spans_by_name(obs)["step"]
    assert step.status == STATUS_TIMEOUT


def test_child_processes_inherit_trace_context():
    env, net, obs, (a, b) = make_net()

    results = []

    def child():
        results.append(obs.tracer.current_context())
        yield env.timeout(0.001)

    def driver():
        span = obs.tracer.start_trace("request", node="client")
        obs.tracer.set_process_context(span)
        yield env.process(child())
        span.finish()
        return span

    ctx = env.run_until(env.process(driver()), limit=5.0)
    assert results == [ctx]
