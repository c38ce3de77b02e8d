"""The FaaS gateway: function registry and request scheduling.

The gateway is the entry point for function requests (§4.2, Figure 2). It
keeps the registry of deployed functions, tracks the live function nodes,
and schedules each invocation onto a node. The default policy is
round-robin; a locality-aware policy can be installed so invocations land
on nodes whose LogBook engine holds the index for the request's LogBook —
the optimization §4.4 describes ("scheduling functions on nodes where their
data is likely to be cached").

Failure handling: every invocation carries a deterministic invocation id
that is stable across client retries (and across the reroutes the
resilience layer adds by wrapping :meth:`Gateway._dispatch`), so functions
that log their effects (BokiFlow workflows keyed by workflow id)
deduplicate re-execution through the shared log — Boki's exactly-once path
— while plain functions get documented at-least-once semantics.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List, Optional

from repro.admission.errors import INTERACTIVE
from repro.sim.kernel import Environment
from repro.sim.network import Network, RpcError, RpcTimeout, unwrap_failure
from repro.sim.node import Node
from repro.sim.seam import Signal
from repro.faas.worker import FunctionNode

if TYPE_CHECKING:
    from repro.resil.policy import RetryPolicy

#: Workflow invocations can be long chains; give them generous timeouts.
INVOKE_TIMEOUT = 120.0

#: Retry-after hint attached to :class:`NoLiveNodesError`: nodes come
#: back on failure-detection / restart timescales, so hammering sooner
#: than this is wasted load (matches the circuit breaker's reset timeout).
NO_NODES_RETRY_AFTER = 0.25


class FunctionNotFoundError(Exception):
    """Invocation of a function name with no registered handler."""


class NoLiveNodesError(RuntimeError):
    """Every function node is down: the invocation cannot be scheduled.

    Subclasses ``RuntimeError`` for compatibility with callers that
    caught the previous untyped error. Retryable in principle — nodes
    may restart — so resilience policies do not treat it as permanent.
    Carries a machine-readable ``retry_after`` hint (seconds) so resil
    backoff and admission control agree on one pacing signal.
    """

    def __init__(self, message: str, retry_after: float = NO_NODES_RETRY_AFTER):
        super().__init__(message)
        self.retry_after = retry_after


class Gateway:
    """Routes invocations to function nodes."""

    #: Methods a layer may intercept with :func:`repro.sim.seam.wrap`.
    WRAP_POINTS = ("_h_invoke", "_dispatch", "external_invoke", "_retry_delay")

    def __init__(self, env: Environment, net: Network):
        self.env = env
        self.net = net
        self.node = net.register(Node(env, "gateway", cpu_capacity=32))
        self.function_nodes: List[FunctionNode] = []
        self._functions: Dict[str, Callable] = {}
        self._rr = itertools.count()
        self._invocation_ids = itertools.count(1)
        #: Optional scheduler override: f(fn_name, book_id, nodes) -> one
        #: of ``nodes``, the eligible pool :meth:`pick_node` computed.
        self.scheduler: Optional[Callable[[str, Optional[int], List[FunctionNode]],
                                          FunctionNode]] = None
        #: Optional active-fleet filter (set by the autoscaler): only
        #: these node names receive new invocations. None = every node.
        self.active_nodes: Optional[frozenset] = None
        #: Gateway-inflight external invocations (the queue gauge the
        #: admission layer reads).
        self.inflight = 0
        self.inflight_peak = 0
        #: Signals (see repro.sim.seam).
        self.inflight_changed = Signal()   # (inflight)
        self.node_scheduled = Signal()     # (fnode) — external dispatch only
        self.invoke_finished = Signal()    # (t_start, t_end, ok) — client view
        self.node.handle("faas.invoke", self._h_invoke)

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def add_function_node(self, fnode: FunctionNode) -> None:
        self.function_nodes.append(fnode)
        fnode.gateway = self
        for fn_name, handler in self._functions.items():
            fnode.register_function(fn_name, handler)

    def register_function(self, fn_name: str, handler: Callable) -> None:
        """Deploy a function to every current and future function node."""
        self._functions[fn_name] = handler
        for fnode in self.function_nodes:
            fnode.register_function(fn_name, handler)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def live_nodes(self) -> List[FunctionNode]:
        """The nodes an invocation may be scheduled on — every scheduler's
        eligibility rule: the live nodes, narrowed to the active fleet.
        Raises :class:`NoLiveNodesError` when no node is live."""
        alive = [f for f in self.function_nodes if f.node.alive]
        if not alive:
            raise NoLiveNodesError("no live function nodes")
        if self.active_nodes is not None:
            # Decommissioned/spare nodes take no new work; if the whole
            # active fleet is down, degrade to any live node rather than
            # fail the invocation.
            active = [f for f in alive if f.name in self.active_nodes]
            alive = active or alive
        return alive

    def pick_node(self, fn_name: str, book_id: Optional[int],
                  exclude=()) -> FunctionNode:
        """Schedule an invocation over the eligible pool: the live nodes
        minus ``exclude``, the nodes that already failed this invocation
        (all live nodes if that leaves none), so a failover re-pick avoids
        them whichever scheduler picks. Without a scheduler the pool is
        walked round-robin."""
        alive = self.live_nodes()
        pool = [f for f in alive if f.name not in exclude] or alive
        if self.scheduler is not None:
            return self.scheduler(fn_name, book_id, pool)
        return pool[next(self._rr) % len(pool)]

    def set_active_nodes(self, names) -> None:
        """Restrict scheduling to ``names`` (the autoscaler's active
        engine fleet); ``None`` restores scheduling over every node."""
        self.active_nodes = None if names is None else frozenset(names)

    # ------------------------------------------------------------------
    # Invocation paths
    # ------------------------------------------------------------------
    def _h_invoke(self, payload: dict) -> Generator:
        """Gateway-side handler for external invocations: count it in
        flight and route it to a function node. (Admission control and
        per-tenant QoS attach here by wrapping this method.)"""
        if payload["fn"] not in self._functions:
            raise FunctionNotFoundError(payload["fn"])
        self.inflight += 1
        if self.inflight > self.inflight_peak:
            self.inflight_peak = self.inflight
        for observe in self.inflight_changed:
            observe(self.inflight)
        try:
            return (yield from self._dispatch(payload))
        finally:
            self.inflight -= 1
            for observe in self.inflight_changed:
                observe(self.inflight)

    def _dispatch(self, payload: dict) -> Generator:
        """Route one admitted invocation to a function node."""
        fnode = self.pick_node(payload["fn"], payload.get("book_id"))
        for observe in self.node_scheduled:
            observe(fnode)
        return (
            yield self.net.rpc(
                self.node, fnode.node, "faas.exec", payload, timeout=INVOKE_TIMEOUT
            )
        )

    def _new_invocation_id(self) -> str:
        return f"inv-{next(self._invocation_ids)}"

    def invoke_from(
        self,
        src_node: Node,
        fn_name: str,
        arg: Any = None,
        book_id: Optional[int] = None,
        positions: Optional[dict] = None,
        tenant: Optional[str] = None,
    ) -> Generator:
        """Invoke a function from ``src_node`` (internal fast path).

        Nightcore routes internal (function-to-function) calls through the
        local engine rather than back to the gateway; we model that by
        scheduling here and sending directly src -> function node.
        ``positions`` is the caller's metalog positions, sent by value.
        Returns ``(result, child_positions)``. A ``tenant`` label is
        inherited by the child (internal calls bypass gateway admission,
        so the label here is lineage, not a second QoS check).
        """
        if fn_name not in self._functions:
            raise FunctionNotFoundError(fn_name)
        payload = {
            "fn": fn_name,
            "arg": arg,
            "book_id": book_id,
            "positions": positions,
            "invocation_id": self._new_invocation_id(),
        }
        if tenant is not None:
            payload["tenant"] = tenant
        fnode = self.pick_node(fn_name, book_id)
        try:
            reply = yield self.net.rpc(
                src_node, fnode.node, "faas.exec", payload, timeout=INVOKE_TIMEOUT
            )
        except RpcError as exc:
            raise unwrap_failure(exc) from None
        return reply["result"], reply["positions"]

    def external_invoke(
        self,
        client_node: Node,
        fn_name: str,
        arg: Any = None,
        book_id: Optional[int] = None,
        timeout: Optional[float] = None,
        policy: Optional[RetryPolicy] = None,
        priority: str = INTERACTIVE,
        tenant: Optional[str] = None,
    ) -> Generator:
        """Client entry point: client -> gateway -> function node.

        Returns only the result: a client sends and gets back no metalog
        positions. Application errors surface with their original types —
        including :class:`FunctionNotFoundError`, :class:`NoLiveNodesError`,
        :class:`~repro.admission.Overloaded`, and inner-hop
        :class:`RpcTimeout` (see :func:`~repro.sim.network.unwrap_failure`).

        ``timeout`` bounds each attempt (default the per-policy attempt
        timeout, else :data:`INVOKE_TIMEOUT`); ``policy`` retries the call
        from the client side — the same invocation id is reused, so
        retried invocations that log their effects stay exactly-once.
        ``priority`` tags the request's admission class
        (``"interactive"`` default, ``"batch"`` sheds first under
        overload). ``tenant`` labels the request for per-tenant QoS —
        only meaningful (and only added to the payload) with tenancy
        enabled, so tenancy-off payloads stay byte-identical.
        """
        t_start = self.env.now
        payload = {
            "fn": fn_name, "arg": arg, "book_id": book_id,
            "invocation_id": self._new_invocation_id(),
            "priority": priority,
        }
        if tenant is not None:
            payload["tenant"] = tenant
        attempt = 0
        while True:
            deadline = timeout
            if deadline is None:
                deadline = (policy.attempt_timeout if policy is not None
                            else None) or INVOKE_TIMEOUT
            # Stamp the attempt's absolute deadline so the gateway stops
            # driving this invocation once the client gives up on it.
            payload["deadline"] = self.env.now + deadline
            try:
                reply = yield self.net.rpc(
                    client_node, self.node, "faas.invoke", payload,
                    timeout=deadline,
                )
            except (RpcError, RpcTimeout) as exc:
                delay = self._retry_delay(policy, exc, attempt)
                if delay is None:
                    for observe in self.invoke_finished:
                        observe(t_start, self.env.now, False)
                    if isinstance(exc, RpcTimeout):
                        raise  # ambiguous: surface the timeout itself
                    raise unwrap_failure(exc) from None
                yield self.env.timeout(delay)
                attempt += 1
            else:
                for observe in self.invoke_finished:
                    observe(t_start, self.env.now, True)
                return reply["result"]

    def _retry_delay(self, policy: Optional[RetryPolicy], exc: BaseException,
                     attempt: int) -> Optional[float]:
        """Backoff before client retry ``attempt + 1``
        (:meth:`RetryPolicy.delay`), or None to give up."""
        if policy is None or not policy.should_retry(exc, attempt):
            return None
        return policy.delay(attempt, exc, self.net.streams.stream("resil-jitter"))
