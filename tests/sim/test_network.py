"""Unit tests for the simulated network and RPC layer."""

import pytest

from repro.sim import Environment, Network, Node, RpcError, RpcTimeout
from repro.sim.network import DEFAULT_RTT
from repro.sim.randvar import RandomStreams
from tests.conftest import ExactNetworkStreams


def make_net():
    env = Environment()
    net = Network(env, ExactNetworkStreams(seed=1))
    a = net.register(Node(env, "a"))
    b = net.register(Node(env, "b"))
    return env, net, a, b


def test_rpc_round_trip_value():
    env, net, a, b = make_net()
    b.handle("echo", lambda payload: payload.upper())
    results = []

    def caller(env):
        value = yield net.rpc(a, b, "echo", "hi")
        results.append((value, env.now))

    env.process(caller(env))
    env.run()
    assert results[0][0] == "HI"
    # One round trip, no jitter.
    assert results[0][1] == pytest.approx(DEFAULT_RTT, rel=0.01)


def test_rpc_generator_handler():
    env, net, a, b = make_net()

    def slow_handler(payload):
        yield env.timeout(0.01)
        return payload * 2

    b.handle("double", slow_handler)
    results = []

    def caller(env):
        value = yield net.rpc(a, b, "double", 21)
        results.append((value, env.now))

    env.process(caller(env))
    env.run()
    assert results[0][0] == 42
    assert results[0][1] == pytest.approx(0.01 + DEFAULT_RTT, rel=0.01)


def test_rpc_handler_exception_becomes_rpc_error():
    env, net, a, b = make_net()

    def bad(payload):
        raise ValueError("nope")

    b.handle("bad", bad)
    caught = []

    def caller(env):
        try:
            yield net.rpc(a, b, "bad")
        except RpcError as exc:
            caught.append(exc)

    env.process(caller(env))
    env.run()
    assert len(caught) == 1
    assert isinstance(caught[0].cause, ValueError)


def test_rpc_to_dead_node_times_out():
    env, net, a, b = make_net()
    b.handle("echo", lambda p: p)
    b.crash()
    caught = []

    def caller(env):
        try:
            yield net.rpc(a, b, "echo", "x", timeout=0.2)
        except RpcTimeout:
            caught.append(env.now)

    env.process(caller(env))
    env.run()
    assert caught == [pytest.approx(0.2)]


def test_rpc_across_partition_times_out():
    env, net, a, b = make_net()
    b.handle("echo", lambda p: p)
    net.partition("a", "b")
    caught = []

    def caller(env):
        try:
            yield net.rpc(a, b, "echo", "x", timeout=0.1)
        except RpcTimeout:
            caught.append(True)

    env.process(caller(env))
    env.run()
    assert caught == [True]


def test_partition_heal_restores_traffic():
    env, net, a, b = make_net()
    b.handle("echo", lambda p: p)
    net.partition("a", "b")
    net.heal("a", "b")
    results = []

    def caller(env):
        results.append((yield net.rpc(a, b, "echo", "ok")))

    env.process(caller(env))
    env.run()
    assert results == ["ok"]


def test_node_crash_mid_handler_fails_fast():
    # A crash while the call is in flight resolves the waiter immediately
    # (fail-fast), not at the full RPC deadline.
    env, net, a, b = make_net()

    def slow(payload):
        yield env.timeout(0.05)
        return "should never arrive"

    b.handle("slow", slow)
    caught = []

    def caller(env):
        try:
            yield net.rpc(a, b, "slow", timeout=0.3)
        except RpcTimeout:
            caught.append(env.now)

    def killer(env):
        yield env.timeout(0.01)
        b.crash()

    env.process(caller(env))
    env.process(killer(env))
    env.run()
    assert caught == [pytest.approx(0.01)]


def test_rpc_to_already_dead_node_waits_full_timeout():
    # Fail-fast applies only to crashes *during* the call: a destination
    # already down when the call starts behaves like a silent drop and the
    # caller waits out its configured deadline.
    env, net, a, b = make_net()
    b.handle("echo", lambda p: p)
    b.crash()
    caught = []

    def caller(env):
        try:
            yield net.rpc(a, b, "echo", timeout=0.3)
        except RpcTimeout:
            caught.append(env.now)

    env.process(caller(env))
    env.run()
    assert caught == [pytest.approx(0.3)]


def test_crash_fail_fast_many_waiters_no_hang():
    # Regression for the drive-limit hang: many callers blocked on a long
    # deadline all resolve at crash time instead of serialising on the
    # global run limit.
    env, net, a, b = make_net()

    def never(payload):
        yield env.timeout(1e9)

    b.handle("never", never)
    resolved = []

    def caller(env, i):
        try:
            yield net.rpc(a, b, "never", i, timeout=100.0)
        except RpcTimeout:
            resolved.append((i, env.now))

    for i in range(5):
        env.process(caller(env, i))

    def killer(env):
        yield env.timeout(0.5)
        b.crash()

    env.process(killer(env))
    env.run(until=2.0)
    assert sorted(i for i, _ in resolved) == [0, 1, 2, 3, 4]
    assert all(t == pytest.approx(0.5) for _, t in resolved)


def test_one_way_send_runs_handler():
    env, net, a, b = make_net()
    seen = []
    b.handle("note", lambda p: seen.append(p))
    a_proc_seen = []

    def sender(env):
        net.send(a, b, "note", {"k": 1})
        a_proc_seen.append(env.now)
        yield env.timeout(0.01)

    env.process(sender(env))
    env.run()
    assert seen == [{"k": 1}]
    assert a_proc_seen == [0.0]  # send() does not block the sender


def test_send_from_dead_node_dropped():
    env, net, a, b = make_net()
    seen = []
    b.handle("note", lambda p: seen.append(p))
    a.crash()
    net.send(a, b, "note", 1)
    env.run()
    assert seen == []


def test_unknown_handler_is_rpc_error():
    env, net, a, b = make_net()
    caught = []

    def caller(env):
        try:
            yield net.rpc(a, b, "missing")
        except RpcError as exc:
            caught.append(exc)

    env.process(caller(env))
    env.run()
    assert len(caught) == 1


def test_duplicate_node_name_rejected():
    env = Environment()
    net = Network(env)
    net.register(Node(env, "x"))
    with pytest.raises(ValueError):
        net.register(Node(env, "x"))


class FarTailStreams:
    """Streams whose every jitter draw lies a second below its mean."""

    def stream(self, name):
        return self

    def gauss(self, mu, sigma):
        return mu - 1.0


def test_delay_is_positive_with_jitter():
    env = Environment()
    net = Network(env, RandomStreams(seed=3))
    for _ in range(1000):
        assert net.one_way_delay() >= 1e-6
    # A draw far enough below the mean is floored at 1 us.
    assert Network(env, FarTailStreams()).one_way_delay() == 1e-6


def test_message_count_and_sent_signal():
    env, net, a, b = make_net()
    b.handle("echo", lambda p: p)
    traced = []
    net.message_sent.subscribe(lambda msg, is_rpc: traced.append(msg))

    def caller(env):
        yield net.rpc(a, b, "echo", 1)

    env.process(caller(env))
    env.run()
    assert net.messages_sent == 1
    assert traced[0].method == "echo"


def test_concurrent_rpcs_independent():
    env, net, a, b = make_net()
    b.handle("id", lambda p: p)
    results = []

    def caller(env, i):
        value = yield net.rpc(a, b, "id", i)
        results.append(value)

    for i in range(20):
        env.process(caller(env, i))
    env.run()
    assert sorted(results) == list(range(20))
