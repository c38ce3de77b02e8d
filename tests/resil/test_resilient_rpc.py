"""Integration tests for the Resilience hub's retrying call wrappers."""

import random

import pytest

from repro.admission import Overloaded
from repro.resil import CircuitBreaker, Resilience, RetryBudget, RetryPolicy
from repro.resil.breaker import FAILURE_THRESHOLD, RESET_TIMEOUT
from repro.sim import Environment, Network, Node
from repro.sim.network import RpcError, RpcTimeout
from tests.conftest import ExactNetworkStreams

#: For calls whose retries the test does not look at.
POLICY = RetryPolicy(retry_timeouts=True)


class Harness:
    """A client node plus two servers whose handlers fail on demand."""

    def __init__(self, seed=1):
        self.env = Environment()
        self.streams = ExactNetworkStreams(seed=seed)
        self.net = Network(self.env, self.streams)
        self.client = self.net.register(Node(self.env, "client"))
        self.servers = {}
        self.calls = {}
        for name in ("srv-a", "srv-b"):
            node = self.net.register(Node(self.env, name))
            self.servers[name] = node
            self.calls[name] = 0
            node.handle("echo", self._make_handler(name))
        self.resil = Resilience(self.env, self.net, self.streams)
        self.fail_first = {}  # name -> how many leading calls raise

    def _make_handler(self, name):
        def handler(payload):
            self.calls[name] += 1
            if self.fail_first.get(name, 0) >= self.calls[name]:
                raise RuntimeError(f"{name} transient failure")
            yield self.env.timeout(1e-4)
            return {"from": name, "payload": payload}
        return handler

    def drive(self, gen, limit=60.0):
        proc = self.env.process(gen)
        return self.env.run_until(proc, limit=limit)


class TestRetryingRpc:
    """One candidate: ``call_with_failover`` as a plain retrying RPC."""

    def test_retries_transient_failures_to_success(self):
        h = Harness()
        h.fail_first["srv-a"] = 2
        policy = RetryPolicy(max_attempts=4, base_delay=1e-3)

        def flow():
            return (yield from h.resil.call_with_failover(
                h.client, ["srv-a"], "echo", {"x": 1}, policy=policy))

        reply = h.drive(flow())
        assert reply["from"] == "srv-a"
        assert h.calls["srv-a"] == 3
        assert h.resil.counters["retries"] == 2
        assert h.resil.budget.spent == 2

    def test_exhausted_policy_reraises_last_error(self):
        h = Harness()
        h.fail_first["srv-a"] = 100
        policy = RetryPolicy(max_attempts=3, base_delay=1e-3)

        def flow():
            yield from h.resil.call_with_failover(
                h.client, ["srv-a"], "echo", None, policy=policy)

        with pytest.raises(RpcError):
            h.drive(flow())
        assert h.calls["srv-a"] == 3

    def test_timeouts_not_retried_without_opt_in(self):
        h = Harness()
        h.servers["srv-a"].crash()
        policy = RetryPolicy(max_attempts=4, retry_timeouts=False,
                             attempt_timeout=0.05)

        def flow():
            yield from h.resil.call_with_failover(
                h.client, ["srv-a"], "echo", None, policy=policy)

        with pytest.raises(RpcTimeout):
            h.drive(flow())
        assert h.resil.counters["attempts"] == 1

    def test_fault_free_calls_consume_no_randomness(self):
        """The determinism guarantee: a successful call draws no jitter
        RNG and leaves the lazy stream uncreated."""
        h = Harness()

        def flow():
            for _ in range(5):
                yield from h.resil.call_with_failover(
                    h.client, ["srv-a"], "echo", None, policy=POLICY)

        h.drive(flow())
        assert "resil-jitter" not in h.streams._streams
        assert h.resil.counters["retries"] == 0

    def test_budget_denial_surfaces_original_error(self):
        h = Harness()
        h.resil.budget = RetryBudget(ratio=0.0, max_tokens=5.0, initial=1.0)
        h.fail_first["srv-a"] = 100
        policy = RetryPolicy(max_attempts=10, base_delay=1e-3)

        def flow():
            yield from h.resil.call_with_failover(
                h.client, ["srv-a"], "echo", None, policy=policy)

        with pytest.raises(RpcError):
            h.drive(flow())
        # One initial token: one retry spent, the second denied.
        assert h.resil.budget.spent == 1
        assert h.resil.budget.denied == 1
        assert h.calls["srv-a"] == 2


class TestCircuitBreaking:
    def test_breaker_opens_and_a_lone_candidate_is_still_probed(self):
        """With every candidate's breaker open the rotation choice is
        tried anyway: total lockout would outlive the fault."""
        h = Harness()
        h.fail_first["srv-a"] = 100
        policy = RetryPolicy(max_attempts=1)

        def call_once():
            yield from h.resil.call_with_failover(
                h.client, ["srv-a"], "echo", None, policy=policy)

        for _ in range(FAILURE_THRESHOLD):
            with pytest.raises(RpcError):
                h.drive(call_once())
        assert h.resil.breaker("srv-a").state == "open"
        calls_before = h.calls["srv-a"]
        with pytest.raises(RpcError):
            h.drive(call_once())
        assert h.calls["srv-a"] == calls_before + 1
        assert h.resil.counters["breaker_fast_fails"] == 1

    def test_half_open_probe_recovers_after_reset(self):
        h = Harness()
        h.fail_first["srv-a"] = FAILURE_THRESHOLD
        policy = RetryPolicy(max_attempts=1)

        def call_once():
            return (yield from h.resil.call_with_failover(
                h.client, ["srv-a"], "echo", None, policy=policy))

        for _ in range(FAILURE_THRESHOLD):
            with pytest.raises(RpcError):
                h.drive(call_once())
        assert h.resil.breaker("srv-a").state == "open"

        def wait_then_call():
            yield h.env.timeout(RESET_TIMEOUT)
            return (yield from h.resil.call_with_failover(
                h.client, ["srv-a"], "echo", None, policy=policy))

        reply = h.drive(wait_then_call())
        assert reply["from"] == "srv-a"
        assert h.resil.breaker("srv-a").state == "closed"


class TestFailover:
    def test_fails_over_to_next_candidate(self):
        h = Harness()
        h.servers["srv-a"].crash()
        policy = RetryPolicy(max_attempts=4, retry_timeouts=True,
                             attempt_timeout=0.05, base_delay=1e-3)

        def flow():
            return (yield from h.resil.call_with_failover(
                h.client, ["srv-a", "srv-b"], "echo", None, policy=policy))

        reply = h.drive(flow())
        assert reply["from"] == "srv-b"
        assert h.resil.counters["failovers"] == 1

    def test_start_offset_preserves_caller_round_robin(self):
        h = Harness()

        def flow(start):
            return (yield from h.resil.call_with_failover(
                h.client, ["srv-a", "srv-b"], "echo", None, policy=POLICY,
                start=start))

        assert h.drive(flow(0))["from"] == "srv-a"
        assert h.drive(flow(1))["from"] == "srv-b"
        assert h.drive(flow(2))["from"] == "srv-a"

    def test_callable_destinations_reresolved_each_attempt(self):
        """The reconfiguration hook: after a failure the candidate list is
        re-read, so a retry converges on the new term's nodes."""
        h = Harness()
        h.servers["srv-a"].crash()
        current = {"nodes": ["srv-a"]}
        policy = RetryPolicy(max_attempts=4, retry_timeouts=True,
                             attempt_timeout=0.05, base_delay=1e-3)

        def flow():
            def backers():
                return current["nodes"]
            return (yield from h.resil.call_with_failover(
                h.client, backers, "echo", None, policy=policy))

        def reconfigure():
            yield h.env.timeout(0.02)
            current["nodes"] = ["srv-b"]

        h.env.process(reconfigure())
        reply = h.drive(flow())
        assert reply["from"] == "srv-b"

    def test_open_breakers_skipped_in_rotation(self):
        h = Harness()
        for _ in range(FAILURE_THRESHOLD):  # trip srv-a open
            h.resil.breaker("srv-a").record_failure()

        def flow():
            return (yield from h.resil.call_with_failover(
                h.client, ["srv-a", "srv-b"], "echo", None, policy=POLICY,
                start=0))

        reply = h.drive(flow())
        assert reply["from"] == "srv-b"
        assert h.resil.counters["breaker_fast_fails"] == 1


class TestCallThunk:
    def test_thunk_rebuilt_each_attempt_and_custom_retry_on(self):
        h = Harness()
        attempts = []

        class AppError(Exception):
            pass

        def flow():
            def attempt():
                attempts.append(h.env.now)
                if len(attempts) < 3:
                    raise AppError("try again")
                yield h.env.timeout(1e-4)
                return "done"
            policy = RetryPolicy(max_attempts=5, base_delay=1e-3)
            return (yield from h.resil.call(attempt, policy=policy,
                                            retry_on=(AppError,)))

        assert h.drive(flow()) == "done"
        assert len(attempts) == 3


# ---------------------------------------------------------------------
# The one retry decision (Resilience._next_delay)
# ---------------------------------------------------------------------
def _decision_hub(log, tokens):
    """A hub whose breaker, budget and jitter stream append what they are
    asked to ``log`` — the decision's side effects, in order."""
    env = Environment()

    class Budget(RetryBudget):
        def try_spend(self):
            spent = super().try_spend()
            log.append("spend" if spent else "denied")
            return spent

    class Breaker(CircuitBreaker):
        def record_failure(self):
            log.append("breaker")
            super().record_failure()

    class Jitter(random.Random):
        def random(self):
            log.append("draw")
            return super().random()

    class Streams:
        def stream(self, name):
            assert name == "resil-jitter"
            return Jitter(7)

    resil = Resilience(env, None, Streams())
    resil.budget = Budget(ratio=0.0, initial=tokens)
    breaker = Breaker(env, "dst")
    # One failure short of opening: the decision's failure trips it.
    for _ in range(FAILURE_THRESHOLD - 1):
        breaker.record_failure()
    log.clear()
    return resil, breaker


_PLAIN = RpcError("m", ValueError("boom"))
_TIMEOUT = RpcTimeout("m", "dst", 1.0)
_SHED = RpcError("faas.invoke", Overloaded("gateway", "concurrency-limit",
                                           retry_after=0.5))
_BASE = dict(max_attempts=4, base_delay=1e-3, max_delay=1e-3)


@pytest.mark.parametrize(
    "policy, exc, attempt, tokens, deadline, effects, delay", [
        pytest.param(RetryPolicy(**_BASE), _PLAIN, 0, 5.0, None,
                     ["breaker", "spend", "draw"], (0.5e-3, 1.5e-3),
                     id="plain-failure"),
        pytest.param(RetryPolicy(**_BASE), _TIMEOUT, 0, 5.0, None,
                     ["breaker"], None, id="timeout-not-opted-in"),
        pytest.param(RetryPolicy(retry_timeouts=True, **_BASE), _TIMEOUT, 0,
                     5.0, None, ["breaker", "spend", "draw"], (0.5e-3, 1.5e-3),
                     id="timeout-opted-in"),
        pytest.param(RetryPolicy(**_BASE), _SHED, 0, 0.0, None,
                     ["draw"], (0.5, 0.5), id="shed-with-hint"),
        pytest.param(RetryPolicy(**_BASE), _PLAIN, 0, 0.0, None,
                     ["breaker", "denied"], None, id="exhausted-budget"),
        pytest.param(RetryPolicy(**_BASE), _PLAIN, 3, 5.0, None,
                     ["breaker"], None, id="exhausted-attempts"),
        pytest.param(RetryPolicy(permanent=(ValueError,), **_BASE), _PLAIN, 0,
                     5.0, None, ["breaker"], None, id="permanent-error"),
        pytest.param(RetryPolicy(**_BASE), _PLAIN, 0, 5.0, 0.4e-3,
                     ["breaker", "spend", "draw"], None,
                     id="dispatch-deadline-inside-the-backoff"),
    ])
def test_retry_decision_delay_and_side_effects_in_order(
        policy, exc, attempt, tokens, deadline, effects, delay):
    log = []
    resil, breaker = _decision_hub(log, tokens)
    got = resil._next_delay(policy, exc, attempt, breaker, deadline)
    assert log == effects
    if delay is None:
        assert got is None
    else:
        assert delay[0] <= got <= delay[1]
    # Only a retry that will happen is counted; a shed never opens the
    # breaker; the budget's own books agree with the log.
    assert resil.counters["retries"] == (0 if delay is None else 1)
    assert breaker.trips == effects.count("breaker")
    assert resil.budget.spent == effects.count("spend")
    assert resil.budget.denied == effects.count("denied")


def test_retry_decision_without_a_policy_or_breaker_gives_up_quietly():
    """The gateway's client-retry point passes whatever policy the client
    gave — possibly none — and has no breaker."""
    log = []
    resil, _ = _decision_hub(log, tokens=5.0)
    assert resil._next_delay(None, _PLAIN, 0) is None
    assert resil._next_delay(RetryPolicy(**_BASE), _PLAIN, 0) is not None
    assert log == ["spend", "draw"]
