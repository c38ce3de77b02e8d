"""Unit tests for the simulated network and RPC layer."""

import pytest

from repro.obs.profile import KernelProfiler
from repro.sim import Environment, Network, Node, RpcError, RpcTimeout
from repro.sim.network import DEFAULT_RTT
from repro.sim.randvar import RandomStreams
from repro.sim.seam import subscribe
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
    subscribe(net, "message_sent", lambda msg, is_rpc: traced.append(msg))

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


def test_deferred_reply_handler_replies_with_its_events_value():
    # A handler may return a pending event: its value, once processed, is
    # the reply.
    env, net, a, b = make_net()
    b.handle("double", lambda payload: env.timeout(0.01, payload * 2))
    results = []

    def caller(env):
        results.append(((yield net.rpc(a, b, "double", 21)), env.now))

    env.process(caller(env))
    env.run()
    assert results == [(42, pytest.approx(0.01 + DEFAULT_RTT, rel=0.01))]


def test_a_deferred_reply_that_fails_ships_rpc_error_and_a_send_ignores_it():
    env, net, a, b = make_net()

    def refuse(payload):
        event = env.event()
        env.call_later(0.01, event.fail, ValueError(payload))
        return event

    b.handle("refuse", refuse)
    finished, caught = [], []
    subscribe(net, "handler_finished", lambda msg, exc: finished.append((msg.method, env.now, exc)))

    def caller(env):
        try:
            yield net.rpc(a, b, "refuse", "no")
        except RpcError as exc:
            caught.append((type(exc.cause), exc.cause.args))

    env.process(caller(env))
    env.run()
    assert caught == [(ValueError, ("no",))]
    sent_at = env.now
    net.send(a, b, "refuse", "quietly")
    env.run()  # nothing is raised and nothing is sent back
    assert net.messages_sent == 2
    assert [(method, type(exc)) for method, _, exc in finished] == [("refuse", ValueError)] * 2
    assert finished[1][1] == pytest.approx(sent_at + DEFAULT_RTT / 2 + 0.01, abs=1e-6)


def test_destination_crash_during_a_deferred_reply_fails_fast():
    env, net, a, b = make_net()
    b.handle("slow", lambda payload: b.cpu.use(0.05))
    caught = []

    def caller(env):
        try:
            yield net.rpc(a, b, "slow", timeout=0.3)
        except RpcTimeout as exc:
            caught.append((env.now, exc.retry_after))

    def killer(env):
        yield env.timeout(0.01)
        b.crash()

    env.process(caller(env))
    env.process(killer(env))
    env.run()
    assert caught == [(pytest.approx(0.01), 0.0)]


SIGNALS = ("message_sent", "message_dropped", "handler_started", "handler_finished", "rpc_finished")


def _tap(net):
    """``(signal, first argument)`` of every network signal, in order."""
    seen = []
    for point in SIGNALS:
        subscribe(net, point, lambda obj, *rest, point=point: seen.append((point, obj)))
    return seen


def _by_object(seen):
    """The distinct objects the signals were passed, in first-seen order,
    each with the signals it was passed to."""
    objects = []
    for point, obj in seen:
        for known, points in objects:
            if known is obj:
                points.append(point)
                break
        else:
            objects.append((obj, [point]))
    return objects


@pytest.mark.parametrize("start", ["send", "multicast", "rpc", "rpc_all"])
def test_every_signal_of_a_message_is_passed_one_call(start):
    """One object per message from ``message_sent`` to ``handler_finished``
    (and ``rpc_finished``): the call, holding the nodes themselves; for an
    RPC it is the event the caller yields."""
    env, net, a, b = make_net()
    c = net.register(Node(env, "c"))
    for node in (b, c):
        node.handle("echo", lambda payload: payload)
    seen = _tap(net)
    yielded = []

    def caller():
        if start == "send":
            net.send(a, b, "echo", 1)
        elif start == "multicast":
            net.multicast(a, [b, c], "echo", 1)
        elif start == "rpc":
            call = net.rpc(a, b, "echo", 1)
            yield call
            yielded.append(call)
        else:
            yielded.extend((yield net.rpc_all(a, [b, c], "echo", 1)))
        yield env.timeout(1.0)

    env.run_until(env.process(caller()))
    is_rpc = start.startswith("rpc")
    dsts = [b] if start in ("send", "rpc") else [b, c]
    objects = _by_object(seen)
    assert [obj.dst for obj, _ in objects] == dsts
    for obj, points in objects:
        assert obj.src is a and obj.method == "echo" and obj.payload == 1
        assert points == ["message_sent", "handler_started", "handler_finished"] + ["rpc_finished"] * is_rpc
    if is_rpc:
        assert len(yielded) == len(objects)
        assert all(call is obj for call, (obj, _) in zip(yielded, objects))


@pytest.mark.parametrize("start", ["send", "rpc"])
def test_a_dropped_message_is_passed_its_call(start):
    env, net, a, b = make_net()
    b.handle("echo", lambda payload: payload)
    net.partition("a", "b")
    seen = _tap(net)
    yielded = []

    def caller():
        if start == "send":
            net.send(a, b, "echo", 1)
            yield env.timeout(1.0)
        else:
            call = net.rpc(a, b, "echo", 1, timeout=0.5)
            try:
                yield call
            except RpcTimeout:
                yielded.append(call)

    env.run_until(env.process(caller()))
    [(obj, points)] = _by_object(seen)
    assert obj.src is a and obj.dst is b
    if start == "send":
        assert points == ["message_sent", "message_dropped"]
    else:
        assert points == ["message_sent", "message_dropped", "rpc_finished"] and yielded == [obj]


def test_a_duplicate_is_a_fresh_call_that_carries_both_contexts():
    """A chaos duplicate is a distinct call with the next message id and
    ``dup`` set; it carries the original's ambient context (``trace_ctx``)
    and the one stamped on it in ``message_sent`` (``carried_ctx``), and is
    never duplicated again."""
    env, net, a, b = make_net()
    b.handle("note", lambda payload: None)
    net.set_link_fault("a", "b", dup=1.0, symmetric=False)
    ambient, carried = object(), object()
    subscribe(net, "message_sent", lambda call, is_rpc: setattr(call, "carried_ctx", carried))
    started = []
    subscribe(net, "handler_started", started.append)

    def sender():
        env._active.trace_ctx = ambient
        net.send(a, b, "note", 1)
        yield env.timeout(1.0)

    env.run_until(env.process(sender()))
    original, dup = started
    assert original is not dup and net.messages_sent == 2
    assert (original.dup, dup.dup) == (False, True)
    assert dup.msg_id == original.msg_id + 1
    assert dup.trace_ctx is original.trace_ctx is ambient
    assert dup.carried_ctx is original.carried_ctx is carried
    assert (dup.src, dup.dst, dup.method, dup.payload) == (a, b, "note", 1)


def test_the_profiler_keys_a_network_entry_by_its_calls_method():
    env, net, a, b = make_net()
    b.handle("echo", lambda payload: payload)
    profiler = KernelProfiler(env)
    calls = []

    def caller():
        net.send(a, b, "note", 1)  # nobody listens: it arrives and is ignored
        call = net.rpc(a, b, "echo", 1)
        calls.append(call)
        yield call

    env.run_until(env.process(caller(), name="caller"))
    [call] = calls
    kinds = profiler.events_by_kind
    assert kinds[("_Call._arrive", "note")] == 1
    assert kinds[("_Call._arrive", call.method)] == kinds[("_Call._deliver", call.method)] == 1
    assert kinds[("Process._start", "caller")] == 1
