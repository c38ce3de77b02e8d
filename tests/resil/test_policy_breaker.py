"""Unit tests: failure classification, retry policies, budgets, breakers."""

import pytest

from repro.resil import (
    FAILURE,
    TIMEOUT,
    CircuitBreaker,
    RetryBudget,
    RetryPolicy,
    classify,
    unwrap_failure,
)
from repro.resil.breaker import FAILURE_THRESHOLD, RESET_TIMEOUT
from repro.sim import Environment
from repro.sim.network import RpcError, RpcTimeout
from repro.sim.randvar import RandomStreams
from tests.conftest import MidpointRng


class TestClassification:
    def test_timeout_is_ambiguous(self):
        exc = RpcTimeout("m", "dst", 1.0)
        assert classify(exc) == TIMEOUT
        assert unwrap_failure(exc) is exc

    def test_handler_error_is_definite(self):
        cause = ValueError("boom")
        exc = RpcError("m", cause)
        assert classify(exc) == FAILURE
        assert unwrap_failure(exc) is cause

    def test_nested_relay_layers_unwrap(self):
        cause = KeyError("x")
        exc = RpcError("outer", RpcError("inner", cause))
        assert unwrap_failure(exc) is cause
        assert classify(exc) == FAILURE

    def test_inner_hop_timeout_stays_a_timeout(self):
        """An RpcTimeout buried under relay RpcErrors must classify as
        TIMEOUT — the whole point of stopping the unwrap at the first
        non-RpcError cause."""
        inner = RpcTimeout("faas.exec", "func-1", 1.0)
        exc = RpcError("faas.invoke", RpcError("relay", inner))
        assert unwrap_failure(exc) is inner
        assert classify(exc) == TIMEOUT


class TestRetryPolicy:
    def test_max_attempts_bounds_retries(self):
        policy = RetryPolicy(max_attempts=3)
        exc = RpcError("m", ValueError())
        assert policy.should_retry(exc, 0)
        assert policy.should_retry(exc, 1)
        assert not policy.should_retry(exc, 2)

    def test_timeouts_not_retried_unless_opted_in(self):
        exc = RpcTimeout("m", "dst", 1.0)
        assert not RetryPolicy(retry_timeouts=False).should_retry(exc, 0)
        assert RetryPolicy(retry_timeouts=True).should_retry(exc, 0)

    def test_permanent_errors_never_retried(self):
        policy = RetryPolicy(max_attempts=10, permanent=(KeyError,))
        assert not policy.should_retry(RpcError("m", KeyError("gone")), 0)
        assert policy.should_retry(RpcError("m", ValueError()), 0)

    def test_permanent_matches_unwrapped_cause(self):
        policy = RetryPolicy(max_attempts=10, permanent=(KeyError,))
        nested = RpcError("outer", RpcError("inner", KeyError("gone")))
        assert not policy.should_retry(nested, 0)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=1e-3, max_delay=4e-3)
        delays = [policy.backoff(k, MidpointRng()) for k in range(5)]
        assert delays == [1e-3, 2e-3, 4e-3, 4e-3, 4e-3]

    def test_backoff_jitter_is_bounded_and_deterministic(self):
        policy = RetryPolicy(base_delay=10e-3)
        a = [policy.backoff(0, RandomStreams(seed=7).stream("j"))
             for _ in range(1)]
        b = [policy.backoff(0, RandomStreams(seed=7).stream("j"))
             for _ in range(1)]
        assert a == b  # same seed, same delay
        rng = RandomStreams(seed=3).stream("j")
        for _ in range(50):
            d = policy.backoff(0, rng)
            assert 5e-3 <= d <= 15e-3  # within [1-j, 1+j] * base


class TestRetryBudget:
    def test_deposits_scale_with_fresh_attempts(self):
        budget = RetryBudget(ratio=0.5, max_tokens=10.0, initial=0.0)
        for _ in range(4):
            budget.on_attempt()
        assert budget.tokens == pytest.approx(2.0)
        assert budget.try_spend() and budget.try_spend()
        assert not budget.try_spend()
        assert budget.spent == 2
        assert budget.denied == 1

    def test_tokens_cap_at_max(self):
        budget = RetryBudget(ratio=1.0, max_tokens=3.0, initial=0.0)
        for _ in range(10):
            budget.on_attempt()
        assert budget.tokens == pytest.approx(3.0)


class TestCircuitBreaker:
    def make(self):
        env = Environment()
        return env, CircuitBreaker(env, "dst")

    def trip(self, breaker):
        for _ in range(FAILURE_THRESHOLD):
            breaker.record_failure()

    def test_opens_after_consecutive_failures(self):
        env, breaker = self.make()
        for _ in range(FAILURE_THRESHOLD - 1):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_failure_streak(self):
        env, breaker = self.make()
        for _ in range(FAILURE_THRESHOLD - 1):
            breaker.record_failure()
        breaker.record_success()
        for _ in range(FAILURE_THRESHOLD - 1):
            breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_single_probe_then_close(self):
        env, breaker = self.make()
        self.trip(breaker)
        assert breaker.state == "open"
        env.run(until=RESET_TIMEOUT + 0.1)  # reset elapses in virtual time
        assert breaker.state == "half-open"
        assert breaker.allow()       # the single probe slot
        assert not breaker.allow()   # concurrent calls stay blocked
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        env, breaker = self.make()
        self.trip(breaker)
        env.run(until=RESET_TIMEOUT + 0.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trips == 2
