"""Unit tests for the simulation's counted resource and the ticker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Resource
from repro.sim.kernel import Event
from repro.sim.sync import Ticker


def run(env):
    env.run()


class TestResource:
    def test_serializes_when_capacity_one(self):
        env = Environment()
        r = Resource(env, capacity=1)
        done = []

        def worker(env, name):
            req = r.request()
            yield req
            yield env.timeout(1.0)
            r.release(req)
            done.append((name, env.now))

        env.process(worker(env, "a"))
        env.process(worker(env, "b"))
        run(env)
        assert done == [("a", 1.0), ("b", 2.0)]

    def test_parallel_up_to_capacity(self):
        env = Environment()
        r = Resource(env, capacity=2)
        done = []

        def worker(env, name):
            req = r.request()
            yield req
            yield env.timeout(1.0)
            r.release(req)
            done.append((name, env.now))

        for name in ["a", "b", "c"]:
            env.process(worker(env, name))
        run(env)
        assert done == [("a", 1.0), ("b", 1.0), ("c", 2.0)]

    def test_use_helper(self):
        env = Environment()
        r = Resource(env, capacity=1)
        times = []

        def worker(env):
            yield r.use(2.0)
            times.append(env.now)

        env.process(worker(env))
        env.process(worker(env))
        run(env)
        assert times == [2.0, 4.0]

    def test_release_without_request_raises(self):
        env = Environment()
        r = Resource(env, capacity=1)
        with pytest.raises(RuntimeError):
            r.release()

    def test_queued_count(self):
        env = Environment()
        r = Resource(env, capacity=1)
        r.request()
        r.request()
        r.request()
        assert r.in_use == 1
        assert r.queued == 2

    def test_invalid_capacity(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, capacity=0)


class PlainTicker(Ticker):
    """The ticker with every wake going through one arming step, written
    out the long way: the reference the early-returning wake must match."""

    __slots__ = ()

    def sleep(self, until=None):
        self.rest()
        self._slept_at = self.env._now
        self._parked = Event(self.env)
        if until is not None:
            self._arm(until)
        return self._parked

    def wake(self, at=None):
        if self._parked is not None:
            self._arm(self.env._now if at is None else at)

    def _arm(self, after):
        env, interval, slept_at = self.env, self.interval, self._slept_at
        after = max(after, env._now)
        due = slept_at + ((after - slept_at) // interval + 1) * interval
        if due <= after:
            due += interval
        timer = self._timer
        if timer is not None:
            if self._due <= due:
                return
            timer.cancel()
        self._due = due
        self._timer = env.timer(due - env._now, self._ring, self._parked)


# An instant relative to now, in grid steps: whole steps (where float
# rounding decides which grid point is "after") and fractions of one.
_steps = st.tuples(st.integers(-3, 12), st.sampled_from([1, 2, 3, 7, 10]))
_ops = st.lists(st.one_of(
    st.tuples(st.just("sleep"), st.none() | _steps),
    st.tuples(st.just("wake"), st.none() | _steps),
    st.tuples(st.just("rest"), st.none()),
    st.tuples(st.just("advance"), _steps),
), max_size=40)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(interval=st.sampled_from([0.1, 1e-3, 2.5e-3, 1 / 3, 0.7]),
       start=st.sampled_from([0.0, 0.05, 0.3, 1.1]), ops=_ops)
def test_wake_arms_exactly_the_rounds_the_plain_arming_step_arms(interval, start, ops):
    env = Environment()
    env.run(until=start)
    tickers = (Ticker(env, interval), PlainTicker(env, interval))
    rings = ([], [])

    def instant(steps):
        whole, parts = steps
        return env.now + whole * interval / parts

    for op, arg in ops:
        if op == "advance":
            env.run(until=max(env.now, instant(arg)))
            assert rings[0] == rings[1]
            continue
        armed = []
        for ticker, rung in zip(tickers, rings):
            before = ticker._timer
            if op == "sleep":
                ticker.sleep(None if arg is None else instant(arg)).callbacks.append(
                    lambda _, rung=rung: rung.append(env.now))
            elif op == "wake":
                ticker.wake(None if arg is None else instant(arg))
            else:
                ticker.rest()
            timer = ticker._timer
            armed.append((timer is None, timer is before, None if timer is None else ticker._due))
        assert armed[0] == armed[1]
    env.run()
    assert rings[0] == rings[1]
