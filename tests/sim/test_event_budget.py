"""Kernel-event budgets per primitive, and what the cheap paths must keep.

The counts are exact: one heap entry run by the loop is one event. They
are pinned with ``==`` so that nobody re-inflates a primitive silently,
and so that a PR that lowers one says so here. A mismatch prints what the
entries were (``tests.conftest.count_events``).
"""

import pytest

from repro.core.cluster import BokiCluster
from repro.obs.profile import KernelProfiler
from repro.obs.recorder import ObsRecorder
from repro.sim import Environment, Interrupt, Network, Node, NodeDownError, RpcError, RpcTimeout
from repro.sim.network import DEFAULT_RTT
from repro.sim.randvar import RandomStreams
from repro.sim.sync import Resource, Ticker
from tests.conftest import ExactNetworkStreams, count_events


def make_net(seed=1, names=("a", "b"), exact=False):
    env = Environment()
    net = Network(env, (ExactNetworkStreams if exact else RandomStreams)(seed=seed))
    return (env, net, *(net.register(Node(env, name)) for name in names))


def events_per_op(env, op, n=200):
    """Events one ``yield op()`` costs a process that does it ``n`` times
    (its own bootstrap entry taken off: nobody joins it, so it ends
    without one)."""
    def loop():
        for _ in range(n):
            yield op()

    return (count_events(env, lambda: env.run_until(env.process(loop()))) - 1) / n


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


def test_queued_resource_use_is_one_event():
    env = Environment()
    cpu = Resource(env, capacity=1)
    ends = []

    def hog():  # keeps the only slot busy whenever the loop below asks for it
        while len(ends) < 200:
            yield cpu.use(1e-5)

    def op():
        assert cpu.in_use == 1
        hold = cpu.use(1e-5)
        assert cpu.queued >= 1
        hold.callbacks.append(lambda _: ends.append(env.now))
        return hold

    env.process(hog())
    env.run(until=5e-6)
    events = events_per_op(env, op)
    # Two processes alternate on one slot: every use of either was queued
    # and cost the one entry that ends it.
    assert events == 2
    assert len(ends) == 200 and ends == sorted(ends)
    env.run()
    assert cpu.in_use == 0 and cpu.queued == 0


def test_send_to_plain_handler_is_one_event():
    env, net, a, b = make_net()
    seen = []
    b.handle("note", seen.append)

    def op():
        net.send(a, b, "note", 1)
        return env.timeout(1e-3)

    assert events_per_op(env, op) - 1 == 1  # the timeout is the op's own
    assert len(seen) == 200


@pytest.mark.parametrize("fanout", [1, 3, 12])
def test_multicast_is_one_event_per_destination(fanout):
    names = ["a"] + [f"d{i}" for i in range(fanout)]
    env, net, a, *dsts = make_net(names=names)
    seen = []
    for dst in dsts:
        dst.handle("note", seen.append)

    def op():
        net.multicast(a, dsts, "note", 1)
        return env.timeout(1e-3)

    assert events_per_op(env, op) - 1 == fanout
    assert len(seen) == 200 * fanout


def test_rpc_to_plain_handler_is_two_events():
    env, net, a, b = make_net()
    b.handle("echo", lambda payload: payload)
    assert events_per_op(env, lambda: net.rpc(a, b, "echo", 1)) == 2


def test_rpc_to_generator_handler_is_two_events():
    env, net, a, b = make_net()

    def handler(payload):
        return payload
        yield  # makes it a generator: runs as a process on the destination

    b.handle("echo", handler)
    assert events_per_op(env, lambda: net.rpc(a, b, "echo", 1)) == 2


def test_generator_handler_pays_only_for_what_it_yields():
    env, net, a, b = make_net()

    def handler(payload):
        yield b.cpu.use(1e-5)
        return payload

    b.handle("echo", handler)
    assert events_per_op(env, lambda: net.rpc(a, b, "echo", 1)) == 3


def test_rpc_all_of_three_is_six_events():
    env, net, a, *dsts = make_net(names=("a", "b", "c", "d"))
    for dst in dsts:
        dst.handle("echo", lambda payload: payload)
    replies = []

    def op():
        gathered = net.rpc_all(a, dsts, "echo", len(replies))
        gathered.callbacks.append(lambda g: replies.append([call.value for call in g.value]))
        return gathered

    # Three arrivals and three replies, the last of which wakes the waiter.
    assert events_per_op(env, op) == 6
    assert replies == [[i] * 3 for i in range(200)]


def test_logbook_append_budget():
    cluster = BokiCluster(num_function_nodes=1, num_storage_nodes=3, seed=0)
    cluster.boot()
    book = cluster.logbook(1)
    cluster.drive(book.append("warm"))
    def appends():
        for _ in range(100):
            cluster.drive(book.append("x"))

    # Background ticking during the appends' virtual time included: 3,696
    # while each storage node's round after a record, which found it
    # ordered, ran and the watchdog ticked while an append waited.
    assert count_events(cluster.env, appends) == 2909


# ----------------------------------------------------------------------
# Ticker: a periodic loop that sleeps until its next deadline
# ----------------------------------------------------------------------
def _ticking(env, ticker, rounds, until=lambda: None):
    """A loop on ``ticker`` that notes when each round runs and then
    sleeps until ``until()``."""
    def loop():
        try:
            while True:
                yield ticker.sleep(until())
                rounds.append(env.now)
        except Interrupt:
            rounds.append("interrupted")
    return env.process(loop())


def test_busy_ticker_is_a_timeout():
    env = Environment()
    ticker = Ticker(env, 0.25)
    # Sleeping until now is the next grid instant, one interval on.
    assert events_per_op(env, lambda: ticker.sleep(until=env.now)) == 1
    assert env.now == 200 * 0.25


def test_parked_ticker_costs_no_events():
    env = Environment()
    rounds = []
    _ticking(env, Ticker(env, 0.25), rounds)
    env.run(until=1.0)  # the bootstrap entry, at t=0
    assert count_events(env, lambda: env.run(until=1000.0)) == 0
    assert rounds == [] and env.peek() is None


@pytest.mark.parametrize("woken_after, fires_after", [
    (0.4, 1.0),
    (1.0, 2.0),  # on a grid point: strictly after the wake
    (2.5, 3.0),
])
def test_woken_ticker_fires_on_the_grid_it_went_to_sleep_on(woken_after, fires_after):
    env = Environment()
    env.run(until=0.5)  # the grid starts at the sleep, not at 0
    interval, rounds = 0.25, []
    ticker = Ticker(env, interval)
    _ticking(env, ticker, rounds)
    env.call_later(woken_after * interval, lambda _: ticker.wake())
    # The loop's bootstrap, the waker's entry, and the one round.
    assert count_events(env, lambda: env.run(until=10.0)) == 3
    assert rounds == [0.5 + fires_after * interval]
    assert env.peek() is None  # found nothing to do again: parked


@pytest.mark.parametrize("until_after, fires_after", [
    (0.0, 1.0),  # until now: the next grid instant
    (0.4, 1.0),
    (3.0, 4.0),  # on a grid point: strictly after the deadline
    (3.5, 4.0),
])
def test_a_deadline_fires_on_the_grid_strictly_after_it(until_after, fires_after):
    env = Environment()
    env.run(until=0.5)
    interval, rounds = 0.25, []
    ticker = Ticker(env, interval)
    deadlines = [0.5 + until_after * interval]
    _ticking(env, ticker, rounds, until=lambda: deadlines.pop() if deadlines else None)
    # The loop's bootstrap and the one round; then it parks for good.
    assert count_events(env, lambda: env.run(until=10.0)) == 2
    assert rounds == [0.5 + fires_after * interval]
    assert env.peek() is None


def test_an_earlier_wake_replaces_a_later_deadline_and_a_later_one_does_not():
    env = Environment()
    rounds = []
    ticker = Ticker(env, 0.25)
    deadlines = [2.0]
    _ticking(env, ticker, rounds, until=lambda: deadlines.pop() if deadlines else None)
    env.call_later(0.1, lambda _: ticker.wake(at=3.0))  # later: a no-op
    env.call_later(0.2, lambda _: ticker.wake(at=0.6))  # earlier: 0.75
    env.call_later(0.3, lambda _: ticker.wake(at=1.0))  # later again: a no-op
    # Bootstrap, three wakers and the one round; the replaced deadline is
    # a tombstone, not an event.
    assert count_events(env, lambda: env.run(until=10.0)) == 5
    assert rounds == [0.75] and env.peek() is None


def test_rest_drops_the_deadline_and_costs_no_event():
    env = Environment()
    rounds = []
    ticker = Ticker(env, 0.25)
    deadlines = [5.0]
    _ticking(env, ticker, rounds, until=lambda: deadlines.pop() if deadlines else None)
    env.call_later(0.1, lambda _: ticker.rest())
    env.run(until=0.2)  # bootstrap and the rest
    assert env.peek() is None and env._tombstones == 0  # the tombstone went too
    assert count_events(env, lambda: env.run(until=100.0)) == 0
    assert rounds == []
    ticker.wake()  # still parked: a wake brings the round back, on its grid
    assert count_events(env, lambda: env.run(until=200.0)) == 1
    assert rounds == [100.25]


def test_a_round_costs_one_entry():
    env = Environment()
    ticker = Ticker(env, 0.25)
    heap_at_sleep = []

    def sleep():
        event = ticker.sleep(until=env.now + 0.3)
        heap_at_sleep.append(len(env._heap))
        return event

    # One timer per round, whose callback resumes the loop in place.
    assert events_per_op(env, sleep) == 1
    assert set(heap_at_sleep) == {1} and env.now == 200 * 0.5


def test_a_second_wake_before_the_round_is_a_no_op():
    env = Environment()
    rounds = []
    ticker = Ticker(env, 0.25)
    _ticking(env, ticker, rounds)
    env.call_later(0.0625, lambda _: ticker.wake())
    env.call_later(0.125, lambda _: ticker.wake())
    env.run(until=0.2)
    assert count_events(env, lambda: env.run(until=10.0)) == 1
    assert rounds == [0.25]


def test_waking_a_ticker_nobody_is_parked_on_is_a_no_op():
    env = Environment()
    rounds = []
    ticker = Ticker(env, 0.25)
    ticker.wake()  # never slept on
    _ticking(env, ticker, rounds, until=lambda: env.now)
    env.call_later(0.125, lambda _: ticker.wake())  # the round already armed is earlier
    env.run(until=0.6)
    assert rounds == [0.25, 0.5]
    # Bootstrap, the waker, and the two rounds that have run.
    assert env.events_processed == 4


def test_interrupt_while_parked_then_a_new_sleep_on_the_same_ticker():
    env = Environment()
    first, second = [], []
    ticker = Ticker(env, 0.25)
    proc = _ticking(env, ticker, first)
    env.call_later(0.1, lambda _: proc.interrupt())
    env.run(until=0.2)
    assert first == ["interrupted"]
    env.call_later(0.1, lambda _: _ticking(env, ticker, second))  # sleeps at 0.3
    env.call_later(0.2, lambda _: ticker.wake())
    env.run(until=10.0)
    assert second == [pytest.approx(0.3 + 0.25)]
    assert first == ["interrupted"]  # the abandoned wait woke nobody


# ----------------------------------------------------------------------
# What the folded entries must keep
# ----------------------------------------------------------------------
def test_gather_wakes_with_its_last_member_and_never_raises():
    env = Environment()
    boom = RuntimeError("boom")
    woken = []

    def failing():
        yield env.timeout(1.0)
        raise boom

    def waiter():
        members = [env.timeout(3.0, value="late"), env.process(failing()), env.timeout(2.0, value="mid")]
        got = yield env.gather(members)
        woken.append((env.now, got == members))
        assert [m.ok for m in got] == [True, False, True]
        assert [m.value for m in got] == ["late", boom, "mid"]

    env.process(waiter())
    env.run()
    assert woken == [(3.0, True)]
    # Three timeouts, a bootstrap for each of the two processes, and a
    # completion for the one the gather joins (nobody waits on the
    # waiter): the join itself cost nothing.
    assert env.events_processed == 6


def test_gather_over_processed_events_is_already_processed():
    env = Environment()
    done = [env.timeout(1.0, value=i) for i in range(3)]
    env.run()
    assert env.gather(done).processed and env.gather([]).processed

    def waiter():
        got = yield env.gather(done)
        return [m.value for m in got], env.now

    assert env.run_until(env.process(waiter())) == ([0, 1, 2], 1.0)
    # One still pending: wakes when that one does.
    late = env.timeout(1.0)
    mixed = env.gather(done + [late])
    assert not mixed.triggered
    env.run()
    assert mixed.processed and env.now == 2.0


@pytest.mark.parametrize("park_on", ["gather", "queued hold"])
def test_interrupting_a_process_parked_on_a_folded_wait(park_on):
    env = Environment()
    cpu = Resource(env, capacity=1)
    caught, later = [], []

    def parked():
        if park_on == "gather":
            wait = env.gather([env.timeout(1.0), env.timeout(2.0)])
        else:
            cpu.use(5.0)  # holds the only slot until t=5
            wait = cpu.use(1.0)
        try:
            yield wait
        except Interrupt as exc:
            caught.append((env.now, exc.cause))
        yield env.timeout(10.0)  # must not be cut short by the abandoned wait
        later.append(env.now)

    proc = env.process(parked())

    def interrupter():
        yield env.timeout(0.5)
        proc.interrupt("stop")

    env.process(interrupter())
    env.run()
    assert caught == [(0.5, "stop")]
    assert later == [10.5]
    # The abandoned hold still took its turn on the slot and gave it back.
    assert cpu.in_use == 0 and cpu.queued == 0


def test_mixed_request_and_use_waiters_are_served_fifo():
    env = Environment()
    cpu = Resource(env, capacity=1)
    order = []

    def requester(name):
        req = cpu.request()
        yield req
        order.append((name, env.now))
        yield env.timeout(1.0)
        cpu.release(req)

    def user(name):
        started = env.now
        yield cpu.use(1.0)
        order.append((name, env.now - 1.0))  # when its hold began
        assert started == 0.0

    # All at t=0 behind a first holder, alternating the two kinds.
    for i, kind in enumerate([requester, user, requester, user, user, requester]):
        env.process(kind(f"{kind.__name__}{i}"))
    env.run()
    assert order == [
        ("requester0", 0.0), ("user1", 1.0), ("requester2", 2.0),
        ("user3", 3.0), ("user4", 4.0), ("requester5", 5.0),
    ]
    assert cpu.in_use == 0 and cpu.queued == 0


def test_handler_raising_before_its_first_yield_ships_rpc_error():
    env, net, a, b = make_net()
    finished = []
    net.handler_finished.subscribe(lambda msg, exc: finished.append((msg.method, exc)))
    boom = ValueError("no")

    def handler(payload):
        raise boom
        yield

    b.handle("bad", handler)
    caught = []

    def caller():
        try:
            yield net.rpc(a, b, "bad", 1)
        except RpcError as exc:
            caught.append(exc.cause)

    env.run_until(env.process(caller()))
    assert caught == [boom] and finished == [("bad", boom)]


def _trace(net, record):
    net.message_sent.subscribe(lambda msg, is_rpc: record.append(("sent", msg.msg_id, msg.dst, net.env.now)))
    net.handler_started.subscribe(lambda msg: record.append(("arrived", msg.msg_id, msg.dst, net.env.now)))
    net.rpc_finished.subscribe(lambda msg, exc: record.append(("replied", msg.msg_id, msg.dst, net.env.now)))


def test_fan_outs_are_consecutive_sends_and_rpcs():
    """``multicast`` / ``rpc_all`` against N ``send``s / ``rpc``s on the
    same seed: same message ids, arrival times, reply times and results."""
    def run(batched):
        env, net, a, *dsts = make_net(names=("a", "b", "c", "d"), seed=7)
        record, results = [], []
        _trace(net, record)
        for dst in dsts:
            dst.handle("note", lambda payload: None)
            dst.handle("echo", lambda payload, name=dst.name: (name, payload))

        def driver():
            for round_ in range(5):
                if batched:
                    net.multicast(a, dsts, "note", round_)
                    calls = yield net.rpc_all(a, dsts, "echo", round_)
                else:
                    for dst in dsts:
                        net.send(a, dst, "note", round_)
                    calls = [net.rpc(a, dst, "echo", round_) for dst in dsts]
                    for call in calls:
                        yield call
                results.append(([call.value for call in calls], env.now))

        env.run_until(env.process(driver()))
        assert len(record) == 5 * (3 * 2 + 3 * 3)
        return record, results

    assert run(batched=True) == run(batched=False)


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
    env, net, a, b = make_net()
    net.partition("a", "b")
    caught = []

    def caller():
        yield env.timeout(0.125)
        started = env.now
        call = net.rpc(a, b, "echo", timeout=0.25)
        try:
            yield call
        except RpcTimeout as exc:
            caught.append((env.now - started, exc.retry_after, call.is_alive, call.value is exc))

    env.process(caller())
    env.run()
    assert caught == [(0.25, None, False, True)]


def test_crash_fails_in_flight_callers_at_once_in_issue_order():
    env, net, a, b = make_net()

    def never(payload):
        yield env.timeout(1e9)

    b.handle("never", never)
    failed = []

    def caller(i):
        try:
            yield net.rpc(a, b, "never", i, timeout=100.0)
        except RpcTimeout as exc:
            failed.append((i, env.now, exc.retry_after))

    def killer():
        yield env.timeout(0.5)
        b.crash()
        # Nobody was resumed inside crash(): each caller wakes from a heap
        # entry of its own, after this process has yielded.
        assert failed == []

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
    env, net, a, b = make_net()
    handled = []
    b.handle("echo", lambda payload: handled.append(payload) or payload)
    net.set_link_fault(*leg, drop=1.0, symmetric=False)
    dropped = []
    net.message_dropped.subscribe(lambda msg, why: dropped.append(why))
    caught = []

    def caller():
        try:
            yield net.rpc(a, b, "echo", 1, timeout=0.5)
        except RpcTimeout:
            caught.append(env.now)

    env.process(caller())
    env.run()
    assert caught == [0.5]
    assert dropped == [reason]
    assert handled == ([] if reason == "chaos" else [1])


@pytest.mark.parametrize("leg", [("a", "b"), ("b", "a")])
def test_link_fault_delay_on_either_leg_adds_to_the_round_trip(leg):
    env, net, a, b = make_net(exact=True)
    b.handle("echo", lambda payload: payload)
    net.set_link_fault(*leg, delay=0.01, symmetric=False)
    done = []

    def caller():
        yield net.rpc(a, b, "echo", 1)
        done.append(env.now)

    env.process(caller())
    env.run()
    assert done == [pytest.approx(DEFAULT_RTT + 0.01)]


@pytest.mark.parametrize("start", ["rpc", "rpc_all", "send", "multicast"])
def test_a_message_started_inline_hands_the_caller_back_its_context(start):
    """The start steps run inside the caller's step and install the call
    while ``message_sent`` runs: afterwards the caller is ``env._active``
    again, so what it opens next stays in its own trace."""
    env, net, a, b = make_net()
    b.handle("echo", lambda payload: payload)
    obs = ObsRecorder(env)
    obs.attach_network(net)
    tracer = obs.tracer
    starts = {
        "rpc": lambda: net.rpc(a, b, "echo", 1),
        "rpc_all": lambda: net.rpc_all(a, [b], "echo", 1),
        "send": lambda: net.send(a, b, "echo", 1),
        "multicast": lambda: net.multicast(a, [b], "echo", 1),
    }
    seen = []

    def caller():
        root = tracer.start_span("root")
        tracer.set_process_context(root)
        starts[start]()
        after = tracer.start_span("after")
        seen.append(env._active is proc)
        seen.append((after.trace_id, after.parent_id) == (root.trace_id, root.span_id))
        yield env.timeout(1e-3)

    def callback(_):
        starts[start]()
        seen.append(env._active)

    proc = env.process(caller())
    env.call_later(0.5, callback)
    env.run()
    assert seen == [True, True, None]


@pytest.mark.parametrize("ok", [True, False])
def test_a_process_that_ended_unjoined_delivers_its_outcome_to_a_later_yield(ok):
    env = Environment()
    boom = RuntimeError("boom")

    def child():
        yield env.timeout(1.0)
        if not ok:
            raise boom
        return "done"

    proc = env.process(child())
    env.run()
    assert proc.processed and env.events_processed == 2  # the bootstrap and the timeout
    got = []

    def late():
        try:
            got.append((yield proc))
        except RuntimeError as exc:
            got.append(exc)

    # The late waiter's bootstrap, and one bounce that resumes it.
    assert count_events(env, lambda: env.run_until(env.process(late()))) == 2
    assert got == ["done" if ok else boom] and env.now == 1.0


def test_rpc_from_a_crashed_source_fails_at_the_callers_yield():
    env, net, a, b = make_net()
    b.handle("echo", lambda payload: payload)
    sent = []
    net.message_sent.subscribe(lambda msg, is_rpc: sent.append(msg))
    a.crash()
    caught = []

    def caller():
        call = net.rpc(a, b, "echo", 1)
        gathered = net.rpc_all(a, [b, b], "echo", 2)
        # Failed, but nobody was resumed inside rpc(): the caller still runs.
        assert not call.processed and not gathered.processed
        try:
            yield call
        except NodeDownError as exc:
            caught.append((env.now, exc.args))
        caught.append([type(member.value) for member in (yield gathered)])

    env.run_until(env.process(caller()))
    assert caught == [(0.0, ("a",)), [NodeDownError, NodeDownError]]
    assert sent == []  # nothing was numbered, announced or sent


def test_a_granted_request_is_processed_on_return():
    env = Environment()
    cpu = Resource(env, capacity=1)
    granted, queued = cpu.request(), cpu.request()
    assert granted.processed and granted.ok
    assert queued.is_alive and cpu.queued == 1
    assert env.peek() is None  # neither is on the heap
    cpu.release(granted)
    assert queued.triggered and cpu.in_use == 1
    env.run()
    assert queued.processed and env.events_processed == 1
