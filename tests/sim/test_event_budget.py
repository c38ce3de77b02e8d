"""Kernel-event budgets per primitive, and timer cancellation.

The counts are exact: one heap entry run by the loop is one event. They
are pinned so that nobody re-inflates a primitive silently; lowering one
is an improvement, raising one needs a reason in the PR that does it.
"""

import pytest

from repro.core.cluster import BokiCluster
from repro.obs.profile import KernelProfiler
from repro.sim import Environment, Interrupt, Network, Node, RpcTimeout
from repro.sim.randvar import RandomStreams
from repro.sim.sync import Resource


def make_net(jitter=15e-6, rpc_timeout=1.0):
    env = Environment()
    net = Network(env, RandomStreams(seed=1), rtt=100e-6, jitter=jitter, rpc_timeout=rpc_timeout)
    a = net.register(Node(env, "a"))
    b = net.register(Node(env, "b"))
    return env, net, a, b


def events_per_op(env, op, n=200):
    """Events one ``yield op()`` costs a process that does it ``n`` times
    (its own bootstrap and completion entries taken off)."""
    def loop():
        for _ in range(n):
            yield op()

    before = env.events_processed
    env.run_until(env.process(loop()))
    return (env.events_processed - before - 2) / n


def test_timeout_is_one_event():
    env = Environment()
    assert events_per_op(env, lambda: env.timeout(1e-3)) == 1


def test_uncontended_resource_use_is_one_event():
    env = Environment()
    cpu = Resource(env, capacity=2)
    assert events_per_op(env, lambda: cpu.use(1e-5)) == 1
    assert cpu.in_use == 0


def test_resource_use_result_is_yieldable_and_inspectable():
    env = Environment()
    cpu = Resource(env, capacity=1)
    free, queued = cpu.use(1.0), cpu.use(1.0)  # the second finds the slot busy
    assert free.is_alive and queued.is_alive
    env.run()
    assert not free.is_alive and not queued.is_alive
    assert env.now == 2.0 and cpu.in_use == 0


def test_send_to_plain_handler_is_two_events():
    env, net, a, b = make_net()
    seen = []
    b.handle("note", seen.append)

    def op():
        net.send(a, b, "note", 1)
        return env.timeout(1e-3)

    assert events_per_op(env, op) - 1 <= 2  # the timeout is the op's own
    assert len(seen) == 200


def test_rpc_to_plain_handler_is_five_events():
    env, net, a, b = make_net()
    b.handle("echo", lambda payload: payload)
    assert events_per_op(env, lambda: net.rpc(a, b, "echo", 1)) <= 5


def test_rpc_to_generator_handler_is_seven_events():
    env, net, a, b = make_net()

    def handler(payload):
        return payload
        yield  # makes it a generator: runs as a process on the destination

    b.handle("echo", handler)
    assert events_per_op(env, lambda: net.rpc(a, b, "echo", 1)) <= 7


def test_logbook_append_budget():
    cluster = BokiCluster(num_function_nodes=1, num_storage_nodes=3, seed=0)
    cluster.boot()
    book = cluster.logbook(1)
    cluster.drive(book.append("warm"))
    before = cluster.env.events_processed
    for _ in range(100):
        cluster.drive(book.append("x"))
    # Background ticking during the appends' virtual time included.
    assert cluster.env.events_processed - before <= 7618


def test_completed_rpcs_take_their_deadline_off_the_heap():
    env, net, a, b = make_net()
    b.handle("echo", lambda payload: payload)

    def caller():
        for i in range(10_000):
            assert (yield net.rpc(a, b, "echo", i)) == i

    profiler = KernelProfiler(env)
    env.run_until(env.process(caller()))
    # Ten thousand 1 s deadlines were armed within about a virtual second.
    assert env.now < 2.0
    assert profiler.max_queue_depth < 50


def test_cancelled_timer_never_fires_and_does_not_move_the_clock():
    env = Environment()
    fired = []
    doomed = env.timer(5.0, fired.append, "doomed")
    env.timer(1.0, fired.append, "kept")
    doomed.cancel()
    doomed.cancel()  # idempotent
    env.run()
    assert fired == ["kept"]
    assert env.now == 1.0


def test_timed_out_rpc_raises_at_exactly_the_deadline():
    env, net, a, b = make_net(rpc_timeout=0.25)
    net.partition("a", "b")
    caught = []

    def caller():
        yield env.timeout(0.125)
        started = env.now
        call = net.rpc(a, b, "echo")
        try:
            yield call
        except RpcTimeout as exc:
            caught.append((env.now - started, exc.retry_after, call.is_alive, call.value is exc))

    env.process(caller())
    env.run()
    assert caught == [(0.25, None, False, True)]


def test_crash_fails_in_flight_callers_at_once_in_issue_order():
    env, net, a, b = make_net(rpc_timeout=100.0)

    def never(payload):
        yield env.timeout(1e9)

    b.handle("never", never)
    failed = []

    def caller(i):
        try:
            yield net.rpc(a, b, "never", i)
        except RpcTimeout as exc:
            failed.append((i, env.now, exc.retry_after))

    def killer():
        yield env.timeout(0.5)
        b.crash()

    # Started out of numeric order: failures must follow the issue order.
    for i in (3, 0, 4, 1, 2):
        env.process(caller(i))
    env.process(killer())
    env.run(until=2.0)
    assert failed == [(i, 0.5, 0.0) for i in (3, 0, 4, 1, 2)]


def test_interrupted_caller_leaves_no_registry_entry():
    env, net, a, b = make_net()

    def slow(payload):
        yield env.timeout(0.01)
        return payload

    b.handle("slow", slow)
    finished = []
    net.rpc_finished.subscribe(lambda msg, exc: finished.append(exc))
    interrupted = []

    def caller():
        try:
            yield net.rpc(a, b, "slow", 1)
        except Interrupt:
            interrupted.append(env.now)

    proc = env.process(caller())

    def interrupter():
        yield env.timeout(0.001)
        proc.interrupt()

    env.process(interrupter())
    env.run(until=0.1)
    assert interrupted == [0.001]
    assert finished == [None]  # the abandoned call still completed, once
    b.crash()  # nothing left in flight to fail
    env.run(until=0.2)
    assert finished == [None]


@pytest.mark.parametrize("leg, reason", [(("a", "b"), "chaos"), (("b", "a"), "reply")])
def test_link_fault_drop_on_either_leg_times_out(leg, reason):
    env, net, a, b = make_net(rpc_timeout=0.5)
    handled = []
    b.handle("echo", lambda payload: handled.append(payload) or payload)
    net.set_link_fault(*leg, drop=1.0, symmetric=False)
    dropped = []
    net.message_dropped.subscribe(lambda msg, why: dropped.append(why))
    caught = []

    def caller():
        try:
            yield net.rpc(a, b, "echo", 1)
        except RpcTimeout:
            caught.append(env.now)

    env.process(caller())
    env.run()
    assert caught == [0.5]
    assert dropped == [reason]
    assert handled == ([] if reason == "chaos" else [1])


@pytest.mark.parametrize("leg", [("a", "b"), ("b", "a")])
def test_link_fault_delay_on_either_leg_adds_to_the_round_trip(leg):
    env, net, a, b = make_net(jitter=0.0)
    b.handle("echo", lambda payload: payload)
    net.set_link_fault(*leg, delay=0.01, symmetric=False)
    done = []

    def caller():
        yield net.rpc(a, b, "echo", 1)
        done.append(env.now)

    env.process(caller())
    env.run()
    assert done == [pytest.approx(100e-6 + 0.01)]
