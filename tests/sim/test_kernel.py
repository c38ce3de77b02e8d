"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import AllOf, AnyOf, Environment, Event, Interrupt, SimulationError, Timeout


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(2.5)
    env.run()
    assert env.now == 2.5


def test_run_until_stops_early():
    env = Environment()
    env.timeout(10.0)
    env.run(until=4.0)
    assert env.now == 4.0


def test_run_until_advances_clock_past_empty_heap():
    env = Environment()
    env.run(until=7.0)
    assert env.now == 7.0


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_process_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return "done"

    p = env.process(proc(env))
    env.run()
    assert p.processed
    assert p.value == "done"


def test_process_sequential_timeouts():
    env = Environment()
    times = []

    def proc(env):
        yield env.timeout(1.0)
        times.append(env.now)
        yield env.timeout(2.0)
        times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [1.0, 3.0]


def test_processes_interleave_in_time_order():
    env = Environment()
    order = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        order.append(name)

    env.process(proc(env, "b", 2.0))
    env.process(proc(env, "a", 1.0))
    env.process(proc(env, "c", 3.0))
    env.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(1.0)
        order.append(name)

    for name in ["x", "y", "z"]:
        env.process(proc(env, name))
    env.run()
    assert order == ["x", "y", "z"]


def test_event_succeed_delivers_value():
    env = Environment()
    event = env.event()
    got = []

    def waiter(env):
        value = yield event
        got.append(value)

    env.process(waiter(env))

    def trigger(env):
        yield env.timeout(1.0)
        event.succeed(42)

    env.process(trigger(env))
    env.run()
    assert got == [42]


def test_event_fail_raises_in_waiter():
    env = Environment()
    event = env.event()
    caught = []

    def waiter(env):
        try:
            yield event
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter(env))
    event.fail(RuntimeError("boom"))
    env.run()
    assert caught == ["boom"]


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_waiting_on_already_processed_event():
    env = Environment()
    event = env.event()
    event.succeed("early")
    env.run()
    got = []

    def late_waiter(env):
        value = yield event
        got.append(value)

    env.process(late_waiter(env))
    env.run()
    assert got == ["early"]


def test_process_failure_propagates_to_waiter():
    env = Environment()

    def failing(env):
        yield env.timeout(1.0)
        raise ValueError("inner")

    caught = []

    def outer(env):
        try:
            yield env.process(failing(env))
        except ValueError as exc:
            caught.append(str(exc))

    env.process(outer(env))
    env.run()
    assert caught == ["inner"]


def test_yield_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    p = env.process(bad(env))
    env.run()
    assert p.triggered
    assert not p.ok
    assert isinstance(p.value, SimulationError)


def test_interrupt_wakes_process():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    p = env.process(sleeper(env))

    def interrupter(env):
        yield env.timeout(3.0)
        p.interrupt("wake up")

    env.process(interrupter(env))
    env.run()
    assert log == [(3.0, "wake up")]


def test_interrupt_dead_process_is_noop():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    p = env.process(quick(env))
    env.run()
    p.interrupt("too late")  # must not raise
    env.run()


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def resilient(env):
        try:
            yield env.timeout(100.0)
        except Interrupt:
            pass
        yield env.timeout(1.0)
        log.append(env.now)

    p = env.process(resilient(env))

    def interrupter(env):
        yield env.timeout(5.0)
        p.interrupt()

    env.process(interrupter(env))
    env.run()
    assert log == [6.0]


def test_stale_timeout_does_not_double_resume():
    env = Environment()
    resumed = []

    def proc(env):
        try:
            yield env.timeout(10.0)
        except Interrupt:
            resumed.append("interrupt")
        yield env.timeout(20.0)
        resumed.append("second")

    p = env.process(proc(env))

    def interrupter(env):
        yield env.timeout(1.0)
        p.interrupt()

    env.process(interrupter(env))
    env.run()
    # The original timeout at t=10 must not resume the process early;
    # the second sleep runs its full 20s from t=1.
    assert resumed == ["interrupt", "second"]
    assert env.now == 21.0


def test_any_of_fires_on_first():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(5.0, value="slow")
        t2 = env.timeout(2.0, value="fast")
        got = yield AnyOf(env, [t1, t2])
        results.append((env.now, list(got.values())))

    env.process(proc(env))
    env.run()
    assert results[0][0] == 2.0
    assert "fast" in results[0][1]


def test_all_of_waits_for_all():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(5.0, value="slow")
        t2 = env.timeout(2.0, value="fast")
        got = yield AllOf(env, [t1, t2])
        results.append((env.now, sorted(got.values())))

    env.process(proc(env))
    env.run()
    assert results == [(5.0, ["fast", "slow"])]


def test_all_of_empty_fires_immediately():
    env = Environment()
    done = []

    def proc(env):
        yield AllOf(env, [])
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [0.0]


def test_step_and_peek():
    env = Environment()
    env.timeout(1.0)
    env.timeout(2.0)
    assert env.peek() == 1.0
    assert env.step()
    assert env.peek() == 2.0
    assert env.step()
    assert not env.step()


def test_many_processes_deterministic():
    def run_once():
        env = Environment()
        order = []

        def proc(env, i):
            yield env.timeout((i * 7919) % 100 / 10.0)
            order.append(i)

        for i in range(50):
            env.process(proc(env, i))
        env.run()
        return order

    assert run_once() == run_once()


def test_run_until_does_not_run_past_its_limit():
    # The next entry lies beyond the limit: it must not run, and a value
    # from beyond the limit must not be returned.
    env = Environment()
    late = env.timeout(10.0, value="from beyond the limit")
    with pytest.raises(SimulationError):
        env.run_until(late, limit=4.0)
    assert env.now == 4.0
    assert not late.processed
    assert env.run_until(late, limit=10.0) == "from beyond the limit"


def test_cancelled_entries_are_skipped_without_advancing_the_clock():
    env = Environment()
    fired = []
    env.timer(1.0, fired.append, 1).cancel()
    assert env.peek() is None
    assert not env.step()
    env.timer(2.0, fired.append, 2).cancel()
    env.timeout(5.0)
    env.timer(7.0, fired.append, 7).cancel()
    assert env.peek() == 5.0
    env.run(until=3.0)
    assert env.now == 3.0
    done = env.timeout(1.0)  # fires at 4.0
    assert env.run_until(done, limit=4.5) is None
    assert env.now == 4.0
    assert env.step() and env.now == 5.0
    assert not env.step()
    env.run()
    assert env.now == 5.0 and fired == []


def test_bare_callbacks_and_events_share_one_order():
    env = Environment()
    order = []
    env.call_later(1.0, order.append, "callback")
    env.timeout(1.0).callbacks.append(lambda event: order.append("event"))
    env.timer(1.0, order.append, "timer")
    env.run()
    assert order == ["callback", "event", "timer"]
    assert env.events_processed == 3


def test_interrupt_while_resuming_from_a_processed_event():
    # The second interrupt lands while the process is resuming from an
    # event that had already fired (a bare heap entry stands in for that
    # wait): the stand-in must not resume the wait that follows.
    env = Environment()
    old = env.event().succeed("old")
    env.run()
    log = []

    def waiter():
        try:
            yield env.event()  # never fires
        except Interrupt:
            log.append("first")
        try:
            yield old
        except Interrupt:
            log.append("second")
        log.append((yield env.timeout(1.0, value="slept")))

    proc = env.process(waiter())
    env.step()
    proc.interrupt()
    proc.interrupt()
    env.run()
    assert log == ["first", "second", "slept"]
    assert env.now == 1.0
