"""The resil <-> admission contract: overload sheds are definite, cheap
failures — never charged to the retry budget, never counted against a
circuit breaker, and always retried no earlier than the shedder's
retry-after hint. This is what turns a retry storm into paced, bounded
re-offered load instead of metastable amplification.
"""

import pytest

from repro.admission import Overloaded
from repro.resil import (
    FAILURE,
    OVERLOAD,
    TIMEOUT,
    Resilience,
    RetryBudget,
    RetryPolicy,
    classify,
)
from repro.resil.breaker import FAILURE_THRESHOLD
from repro.sim import Environment
from repro.sim.network import RpcError, RpcTimeout
from tests.conftest import MidpointRng

pytestmark = pytest.mark.admission

#: Policy for the retry-loop tests: a tiny base delay, so the retry-after
#: floor is clearly what paces the loop, and enough attempts to open a
#: breaker. ``make_resil`` draws jitter at the midpoint, so backoffs are
#: exact.
POLICY = RetryPolicy(max_attempts=FAILURE_THRESHOLD + 2, base_delay=1e-3,
                     max_delay=1e-3, retry_timeouts=True)


def make_resil(env, net=None, budget=None):
    resil = Resilience(env, net, MidpointRng())
    resil.budget = budget or RetryBudget(initial=FAILURE_THRESHOLD + 1.0,
                                         ratio=0.0)
    return resil


def shed_error(retry_after=0.05):
    """An admission shed as the gateway relays it to clients."""
    return RpcError("faas.invoke",
                    Overloaded("gateway", "concurrency-limit",
                               retry_after=retry_after))


class TestClassification:
    def test_overloaded_is_its_own_failure_kind(self):
        assert classify(Overloaded("gateway", "deadline")) == OVERLOAD

    def test_overload_survives_rpc_relay_nesting(self):
        shed = Overloaded("storage.s-1", "window-full", retry_after=0.02)
        relayed = RpcError("faas.invoke", RpcError("engine.relay", shed))
        assert classify(relayed) == OVERLOAD

    def test_overload_outranks_the_timeout_failure_split(self):
        # Without the overload marker these classify as before.
        assert classify(RpcTimeout("m", "dst", 1.0)) == TIMEOUT
        assert classify(RpcError("m", ValueError())) == FAILURE


class TestRetryAfterFloor:
    def test_hint_floors_the_backoff_delay(self):
        assert POLICY.delay(0, shed_error(0.5), MidpointRng()) == \
            pytest.approx(0.5)

    def test_larger_backoff_wins_over_a_small_hint(self):
        slow = RetryPolicy(base_delay=1.0, max_delay=1.0)
        assert slow.delay(0, shed_error(0.1), MidpointRng()) == \
            pytest.approx(1.0)

    def test_no_hint_means_plain_backoff(self):
        exc = RpcError("m", ValueError())
        assert POLICY.delay(0, exc, MidpointRng()) == pytest.approx(1e-3)


def _drive(env, resil, attempt_fn, until=10.0):
    """Run ``resil.call(attempt_fn)`` to completion; returns (result,
    error) with exactly one of the two set."""
    out = {}

    def driver():
        try:
            out["result"] = yield from resil.call(attempt_fn, POLICY)
        except Exception as exc:  # noqa: BLE001 — the assertion target
            out["error"] = exc

    env.process(driver())
    env.run(until=until)
    return out.get("result"), out.get("error")


class TestBudgetExemption:
    def test_shed_retries_charge_no_budget_and_pace_at_the_hint(self):
        env = Environment()
        resil = make_resil(env)
        calls = []

        def attempt():
            calls.append(env.now)
            if len(calls) < 3:
                raise shed_error(0.05)
            return "ok"
            yield  # pragma: no cover — makes this a generator function

        result, error = _drive(env, resil, attempt)
        assert result == "ok" and error is None
        assert resil.counters["retries"] == 2
        # No budget token was spent on either shed retry...
        assert resil.budget.spent == 0
        assert resil.budget.denied == 0
        # ...and each retry waited the full retry-after hint, not the
        # 1ms backoff: arrivals at t=0, 0.05, 0.10.
        assert calls == [pytest.approx(0.0), pytest.approx(0.05),
                         pytest.approx(0.10)]

    def test_ordinary_failures_still_charge_the_budget(self):
        env = Environment()
        resil = make_resil(env)
        calls = []

        def attempt():
            calls.append(env.now)
            if len(calls) < 3:
                raise RpcError("m", ValueError("boom"))
            return "ok"
            yield  # pragma: no cover

        result, _ = _drive(env, resil, attempt)
        assert result == "ok"
        assert resil.budget.spent == 2

    def test_exhausted_budget_denies_failure_retries(self):
        env = Environment()
        resil = make_resil(env, budget=RetryBudget(initial=0.0, ratio=0.0))

        def attempt():
            raise RpcError("m", ValueError("boom"))
            yield  # pragma: no cover

        result, error = _drive(env, resil, attempt)
        assert result is None
        assert isinstance(error, RpcError)
        assert resil.counters["retries"] == 0
        assert resil.budget.denied == 1

    def test_exhausted_budget_does_not_block_shed_retries(self):
        """The whole point of the exemption: when the budget is gone
        (e.g. burned by a real outage) shed requests still re-offer at
        the shedder's pace — they add no amplification to bound."""
        env = Environment()
        resil = make_resil(env, budget=RetryBudget(initial=0.0, ratio=0.0))
        calls = []

        def attempt():
            calls.append(env.now)
            if len(calls) < 2:
                raise shed_error(0.05)
            return "ok"
            yield  # pragma: no cover

        result, error = _drive(env, resil, attempt)
        assert result == "ok" and error is None
        assert resil.counters["retries"] == 1
        assert resil.budget.denied == 0


class _ScriptedNet:
    """A Network stand-in whose rpc() fails with scripted errors, then
    succeeds — enough to exercise ``call_with_failover``'s breaker
    accounting."""

    def __init__(self, env, errors):
        self.env = env
        self.errors = list(errors)

    def rpc(self, src, dst, method, payload, timeout=None):
        event = self.env.event()
        if self.errors:
            event.fail(self.errors.pop(0))
        else:
            event.succeed("ok")
        return event


class TestBreakerExemption:
    def test_sheds_never_trip_the_breaker(self):
        env = Environment()
        net = _ScriptedNet(env, [shed_error(0.01)] * (FAILURE_THRESHOLD + 1))
        resil = make_resil(env, net=net)
        out = {}

        def driver():
            out["result"] = yield from resil.call_with_failover(
                "client", ["dst"], "m", policy=POLICY)

        env.process(driver())
        env.run(until=10.0)
        assert out["result"] == "ok"
        breaker = resil.breaker("dst")
        # More consecutive sheds than the threshold: a real failure streak
        # would have opened the breaker; sheds left it untouched.
        assert breaker.state == "closed"
        assert breaker.trips == 0
        assert resil.counters["breaker_fast_fails"] == 0

    def test_real_failures_still_trip_the_breaker(self):
        env = Environment()
        net = _ScriptedNet(env, [RpcError("m", ValueError())] * FAILURE_THRESHOLD)
        resil = make_resil(env, net=net)
        out = {}

        def driver():
            out["result"] = yield from resil.call_with_failover(
                "client", ["dst"], "m", policy=POLICY)

        env.process(driver())
        env.run(until=10.0)
        # The same streak as the sheds above, of real failures: the
        # breaker opened, and the lone candidate's probe then closed it.
        assert resil.breaker("dst").trips == 1
        assert resil.counters["breaker_fast_fails"] == 1
        assert out["result"] == "ok"
