"""The resilience hub: retrying RPC wrappers over ``sim.network``.

One :class:`Resilience` instance serves a whole cluster (see
``BokiCluster.enable_resilience``). It owns the shared retry budget, the
per-destination circuit breakers, the deterministic jitter RNG stream,
and counters that scenarios embed in verdict artifacts.

The wrappers are generator functions consumed with ``yield from`` inside
a simulation process::

    reply = yield from resil.call_with_failover(
        src, lambda: current_backers(), "storage.read", payload, policy=policy)
    reply = yield from resil.call(lambda: attempt_once(), policy)

Passing a *callable* destination list re-resolves the candidates on
every attempt, which is how engine calls ride through reconfiguration:
after a term change the callable returns the new term's nodes and the
retry loop converges on them instead of deadlocking on a dead primary.

Three loops, one decision: ``call_with_failover`` rotates candidates,
``call`` re-runs a thunk, the gateway dispatch wrap re-picks a function
node — and each asks :meth:`Resilience._next_delay` whether the failed
attempt is retried and after how long, as do the gateway's client retries.

Determinism guarantee: the first attempt of every wrapper is exactly one
``Network.rpc`` call — no RNG draw, no extra timeout event, no added
virtual time — so a fault-free run behaves byte-identically with the
resilience layer on or off.

The hub reaches the protocol components only through the seam
(:mod:`repro.sim.seam`): :meth:`Resilience.attach` wraps the engine's one
replica-call point and the gateway's dispatch and client-retry points.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Union

from repro.admission.errors import is_overload
from repro.faas.gateway import FunctionNotFoundError
from repro.resil.breaker import CircuitBreaker
from repro.resil.policy import RetryBudget, RetryPolicy
from repro.sim.kernel import Environment
from repro.sim.network import Network, RpcError, RpcTimeout
from repro.sim.node import Node
from repro.sim.seam import wrap

#: Policies for the engine's replica calls, by RPC method. All of these
#: operations are idempotent (reads) or deduplicated by position (trims),
#: so timeouts are safe to retry. Each attempt keeps the engine's own
#: per-call timeout.
REPLICA_POLICIES: Dict[str, RetryPolicy] = {
    "storage.read": RetryPolicy(
        max_attempts=6, base_delay=1e-3, max_delay=0.05, retry_timeouts=True,
    ),
    "engine.read": RetryPolicy(
        max_attempts=4, base_delay=2e-3, max_delay=0.1, retry_timeouts=True,
    ),
    "seq.append_trim": RetryPolicy(
        max_attempts=5, base_delay=5e-3, max_delay=0.2, retry_timeouts=True,
    ),
}

#: Client-side invoke retries and the gateway's reroutes. Timeouts are
#: retried (invocations are deduplicated through the log when they log
#: their effects; otherwise at-least-once) with a per-attempt timeout
#: short enough to ride through failure detection + reconfiguration
#: windows.
INVOKE_POLICY = RetryPolicy(
    max_attempts=6, base_delay=5e-3, max_delay=0.2,
    attempt_timeout=1.0, retry_timeouts=True,
    permanent=(FunctionNotFoundError,),
)


class Resilience:
    """Shared resilience state + retrying call wrappers for one cluster."""

    def __init__(self, env: Environment, net: Network, streams):
        self.env = env
        self.net = net
        self.streams = streams
        self.budget = RetryBudget()
        self.breakers: Dict[str, CircuitBreaker] = {}
        self.counters: Dict[str, int] = {
            "attempts": 0,
            "retries": 0,
            "failovers": 0,
            "reroutes": 0,
            "breaker_fast_fails": 0,
        }

    # ------------------------------------------------------------------
    # Shared state
    # ------------------------------------------------------------------
    def _next_delay(self, policy: Optional[RetryPolicy], exc: BaseException,
                    attempt: int, breaker: Optional[CircuitBreaker] = None,
                    deadline: Optional[float] = None) -> Optional[float]:
        """The retry decision of every loop: the backoff before retrying
        0-based ``attempt`` that failed with ``exc``, or None to give up.

        ``breaker`` is the failed destination's, where the loop has one;
        past the absolute virtual time ``deadline`` the caller has stopped
        waiting. Verdicts embed these counters, so the order is contract:
        breaker failure before the retry test; budget spent and jitter
        drawn before the deadline test that may still give up; only a
        retry that will happen is counted.
        """
        # Overload sheds: no breaker failure (the node is up, just
        # saturated), no budget charge (nothing executed, so there is no
        # amplification to bound), and the shedder's retry-after hint
        # floors the backoff.
        shed = is_overload(exc)
        if breaker is not None and not shed:
            breaker.record_failure()
        if policy is None or not policy.should_retry(exc, attempt):
            return None
        if not shed and not self.budget.try_spend():
            return None
        delay = policy.delay(attempt, exc, self.streams.stream("resil-jitter"))
        if deadline is not None and self.env.now + delay >= deadline:
            return None  # the client has (or will have) given up: no zombies
        self.counters["retries"] += 1
        return delay

    def breaker(self, destination: str) -> CircuitBreaker:
        breaker = self.breakers.get(destination)
        if breaker is None:
            breaker = self.breakers[destination] = CircuitBreaker(
                self.env, destination)
        return breaker

    def snapshot(self) -> Dict[str, int]:
        """Deterministic counter snapshot for verdict artifacts."""
        snap = dict(self.counters)
        snap["breaker_trips"] = sum(b.trips for b in self.breakers.values())
        snap["budget_spent"] = self.budget.spent
        snap["budget_denied"] = self.budget.denied
        return snap

    # ------------------------------------------------------------------
    # Call wrappers
    # ------------------------------------------------------------------
    def call_with_failover(
        self,
        src: Union[str, Node],
        dsts: Union[List, Callable[[], List]],
        method: str,
        payload=None,
        *,
        policy: RetryPolicy,
        timeout: Optional[float] = None,
        start: int = 0,
    ) -> Generator:
        """Retrying call that rotates across candidate destinations.

        ``dsts`` is a list of node names/Nodes, or a callable returning
        the *current* list (re-resolved every attempt — the hook that
        lets calls follow a reconfiguration to the new term's nodes);
        ``payload`` may likewise be a callable, evaluated after ``dsts``.
        ``start`` offsets the rotation so callers can preserve their own
        round-robin state (identical destination choice with the layer
        on or off in fault-free runs).
        """
        attempt = 0
        offset = start
        self.budget.on_attempt()
        while True:
            candidates = list(dsts() if callable(dsts) else dsts)
            if not candidates:
                raise LookupError(f"no destinations available for {method!r}")
            names = [c if isinstance(c, str) else c.name for c in candidates]
            # Next candidate in rotation whose breaker admits the call;
            # if every breaker is open, probe the rotation choice anyway
            # (total lockout would otherwise outlive the fault).
            chosen = None
            for i in range(len(names)):
                idx = (offset + i) % len(names)
                if self.breaker(names[idx]).allow():
                    chosen = idx
                    break
                self.counters["breaker_fast_fails"] += 1
            if chosen is None:
                chosen = offset % len(names)
            self.counters["attempts"] += 1
            try:
                result = yield self.net.rpc(
                    src, candidates[chosen], method,
                    payload() if callable(payload) else payload,
                    timeout=timeout if timeout is not None else policy.attempt_timeout,
                )
            except (RpcError, RpcTimeout) as exc:
                delay = self._next_delay(policy, exc, attempt,
                                         self.breaker(names[chosen]))
                if delay is None:
                    raise
                if len(names) > 1:
                    self.counters["failovers"] += 1
                offset = chosen + 1
                yield self.env.timeout(delay)
                attempt += 1
                continue
            self.breaker(names[chosen]).record_success()
            return result

    def call(
        self,
        attempt_fn: Callable[[], Generator],
        policy: RetryPolicy,
        retry_on: tuple = (RpcError, RpcTimeout),
    ) -> Generator:
        """Retry an arbitrary generator-producing thunk.

        ``attempt_fn`` is invoked fresh on every attempt, so call sites
        that must rebuild request state per attempt (re-reading the
        current term's primary, re-deriving a payload) express that
        naturally. ``retry_on`` widens the retryable set beyond
        transport errors — e.g. workflow re-drivers retry
        ``WorkflowCrash``.
        """
        attempt = 0
        self.budget.on_attempt()
        while True:
            self.counters["attempts"] += 1
            try:
                result = yield from attempt_fn()
            except retry_on as exc:
                delay = self._next_delay(policy, exc, attempt)
                if delay is None:
                    raise
                yield self.env.timeout(delay)
                attempt += 1
                continue
            return result

    # ------------------------------------------------------------------
    # Attachment (repro.sim.seam)
    # ------------------------------------------------------------------
    def attach(self, cluster) -> None:
        """Make ``cluster`` resilient: gateway failover + client invoke
        retries, and replica failover for every engine."""
        self.attach_gateway(cluster.gateway)
        for engine in cluster.engines.values():
            self.attach_engine(engine)

    def attach_engine(self, engine) -> None:
        """The engine's replica calls (storage reads, remote index reads,
        trims) fail over across the candidates with backoff. Candidates
        and payload are re-resolved per attempt, so a call rides through a
        reconfiguration; rotation starts at the engine's own offset, so a
        fault-free run picks the identical replica with the layer on or
        off."""
        def wrapper(inner):
            def call_replicas(request, method, start, timeout, tries):
                attempt: dict = {}

                def replicas():
                    names, attempt["payload"] = request()
                    return names

                return self.call_with_failover(
                    engine.node, replicas, method, lambda: attempt["payload"],
                    policy=REPLICA_POLICIES[method], timeout=timeout,
                    start=start,
                )
            return call_replicas

        wrap(engine, "_call_replicas", wrapper, "resil")

    def attach_gateway(self, gateway) -> None:
        """Gateway-side failover across live function nodes plus
        client-side invoke retries, both under :data:`INVOKE_POLICY`
        unless the client passes its own policy."""
        def failover(inner):
            return lambda payload: self._dispatch_with_failover(gateway, payload)

        def default_policy(inner):
            def external_invoke(*args, policy=None, **kwargs):
                self.budget.on_attempt()
                return inner(*args, policy=policy or INVOKE_POLICY, **kwargs)
            return external_invoke

        wrap(gateway, "_dispatch", failover, "resil")
        wrap(gateway, "external_invoke", default_policy, "resil")
        # The hub's decision replaces the gateway's own: the same policy
        # test, backoff and hint floor, plus the budget and the counter.
        wrap(gateway, "_retry_delay", lambda inner: self._next_delay, "resil")

    def _dispatch_with_failover(self, gateway, payload: dict) -> Generator:
        """Reroute a failed invocation to another live function node.

        The payload's ``invocation_id`` is stable across reroutes, so a
        rerouted invocation whose first execution actually ran (lost
        reply) deduplicates through the log when the function logs its
        effects. Failed nodes are excluded from re-picks; breakers skip
        nodes with a recent failure streak.

        Deadline propagation: the client stamps each attempt with an
        absolute virtual-time ``deadline``; the gateway never launches or
        retries an execution past it. Without this, a gateway handler
        whose client has already timed out and retried keeps re-driving
        the OLD invocation, and its zombie execution can apply a stale
        write *after* the client's newer operations — which would break
        linearizability, not just waste work.
        """
        deadline = payload.get("deadline")
        attempt = 0
        failed: List[str] = []
        self.budget.on_attempt()
        while True:
            fnode = gateway.pick_node(payload["fn"], payload.get("book_id"),
                                      exclude=failed)
            breaker = self.breaker(fnode.name)
            if not breaker.allow() and len(failed) < len(gateway.function_nodes):
                self.counters["breaker_fast_fails"] += 1
                failed.append(fnode.name)
                continue
            attempt_timeout = INVOKE_POLICY.attempt_timeout
            if deadline is not None:
                remaining = deadline - self.env.now
                if remaining <= 0:
                    raise RpcTimeout("faas.exec", fnode.name, 0.0)
                attempt_timeout = min(attempt_timeout, remaining)
            self.counters["attempts"] += 1
            try:
                reply = yield self.net.rpc(
                    gateway.node, fnode.node, "faas.exec", payload,
                    timeout=attempt_timeout,
                )
            except (RpcError, RpcTimeout) as exc:
                backoff = self._next_delay(INVOKE_POLICY, exc, attempt, breaker,
                                           deadline)
                if backoff is None:
                    raise
                self.counters["reroutes"] += 1
                if fnode.name not in failed:
                    failed.append(fnode.name)
                if len(failed) >= len(gateway.function_nodes):
                    failed = []  # full cycle: everyone gets another chance
                yield self.env.timeout(backoff)
                attempt += 1
                continue
            breaker.record_success()
            return reply
