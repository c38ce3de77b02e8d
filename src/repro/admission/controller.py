"""Admission controllers: the gateway-side limiter and node-side windows.

Two cooperating pieces:

- :class:`AdmissionController` lives at the gateway. It combines the
  :class:`~repro.admission.limiter.AdaptiveLimiter` (how many requests
  may be inflight), deadline-aware early rejection (a request whose
  remaining deadline cannot cover the estimated service time is doomed —
  shed it before it wastes a worker slot), and the two priority classes:
  batch requests see only :data:`BATCH_SHARE` of the concurrency limit,
  so under overload batch sheds first and interactive degrades last.

- :class:`NodeAdmission` guards one engine or storage node with a
  :class:`~repro.admission.window.BoundedWindow` (hard inflight cap) and
  a :class:`~repro.admission.window.CoDelShedder` over the *estimated*
  queue delay (``inflight x service_time`` — the deterministic analogue
  of measuring sojourn at dequeue). A node-level shed surfaces to the
  caller as :class:`~repro.admission.errors.Overloaded`, propagates up
  the RPC relay chain, and lands in the gateway limiter as a
  multiplicative-decrease backpressure signal: storage -> engine ->
  gateway.

Elasticity integration (:meth:`AdmissionController.armed`): shedding is
the *last* resort. While the cluster can still scale out — an autoscaler
is attached, the fleet is below ``max_nodes``, and no reconfiguration is
in flight — concurrency/window/CoDel shedding stays disarmed and the
surge is absorbed by queues until new capacity arrives. Only at
``max_nodes`` (or mid-reconfiguration, when adding capacity is
momentarily impossible) does load shedding engage. Deadline-based
rejection is always armed: executing a request that cannot meet its
deadline is waste at any fleet size.

Determinism: every decision is arithmetic over observed state — no RNG,
no kernel events — and under-capacity traffic never trips a limit, so
fault-free runs stay byte-identical with admission enabled.

The layer reaches the protocol components only through the seam
(:mod:`repro.sim.seam`): :meth:`AdmissionController.attach` wraps the
gateway's invoke handler, every engine's ``append`` and every storage
node's replicate handler.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.admission.errors import BATCH, INTERACTIVE, Overloaded, is_overload
from repro.admission.limiter import AdaptiveLimiter
from repro.admission.window import CODEL_TARGET, BoundedWindow, CoDelShedder
from repro.core.config import ENGINE_SERVICE
from repro.sim.kernel import Event
from repro.sim.seam import Signal, wrap

#: Node-side window size of every engine and storage node: generous
#: enough that only saturating load trips it (engine appends and storage
#: writes both complete in well under a millisecond of service time).
WINDOW = 512
#: Fraction of the gateway concurrency limit that batch requests see.
BATCH_SHARE = 0.7


class AdmissionController:
    """Gateway-side admission control: limiter + deadlines + priorities."""

    def __init__(self, env, limiter: Optional[AdaptiveLimiter] = None):
        self.env = env
        self.limiter = limiter or AdaptiveLimiter()
        #: Cluster backref (set by :meth:`attach`) — read lazily so
        #: enable-order between admission, elasticity, monitoring and
        #: tenancy does not matter.
        self.cluster = None
        self.nodes: List["NodeAdmission"] = []
        self.admitted: Dict[str, int] = {INTERACTIVE: 0, BATCH: 0}
        self.shed: Dict[str, int] = {}
        self.shed_by_priority: Dict[str, int] = {INTERACTIVE: 0, BATCH: 0}
        self.downstream_overloads = 0
        #: Every gateway and node-window decision: (t, admitted, priority,
        #: reason) — the monitor hub's shed-rate feed.
        self.admission_decided = Signal()

    # ------------------------------------------------------------------
    # Attachment (repro.sim.seam)
    # ------------------------------------------------------------------
    def attach(self, cluster) -> None:
        """Guard ``cluster``: this controller at the gateway, a bounded
        window + CoDel shedder at every engine and storage node."""
        self.cluster = cluster
        self.attach_gateway(cluster.gateway)
        for name, engine in cluster.engines.items():
            NodeAdmission(self.env, f"engine.{name}", ENGINE_SERVICE,
                          controller=self).guard(engine, "append")
        for snode in cluster.storage_nodes:
            NodeAdmission(self.env, f"storage.{snode.name}",
                          cluster.config.storage_service,
                          controller=self).guard(snode, "_h_replicate")

    def attach_gateway(self, gateway) -> None:
        """Every arrival passes :meth:`check` (concurrency limit,
        deadline-aware early rejection, priority classes) *before* a node
        is picked; shed requests bounce straight back to the client as
        :class:`Overloaded` without consuming a worker slot. Completion
        latency feeds the adaptive limiter; downstream overloads (an
        engine or storage window shed an admitted request) feed back as
        multiplicative decrease.

        With tenancy enabled a labelled arrival takes the hub's
        *weighted-fair* composition of the same check instead (an
        over-share tenant sheds first; an under-share tenant is never
        starved)."""
        def wrapper(inner):
            def h_invoke(payload: dict):
                tenancy = self.cluster.tenancy
                tenant = payload.get("tenant")
                priority = payload.get("priority", INTERACTIVE)
                if tenancy is not None and tenant is not None:
                    tenancy.admission_check(
                        self, gateway.inflight, tenant,
                        priority=priority, deadline=payload.get("deadline"))
                else:
                    self.check(gateway.inflight, priority=priority,
                               deadline=payload.get("deadline"))
                t_accept = self.env.now
                try:
                    reply = yield from inner(payload)
                except BaseException as exc:
                    if is_overload(exc):
                        self.on_downstream_overload()
                    raise
                self.on_success(self.env.now - t_accept)
                return reply
            return h_invoke

        wrap(gateway, "_h_invoke", wrapper, "admission")

    # ------------------------------------------------------------------
    # Elasticity gating
    # ------------------------------------------------------------------
    def armed(self) -> bool:
        """Whether load shedding is engaged (see module docstring)."""
        elastic = None if self.cluster is None else self.cluster.elastic
        if elastic is None:
            return True
        return elastic.reconfiguring or not elastic.can_scale_out()

    # ------------------------------------------------------------------
    # The admission decision
    # ------------------------------------------------------------------
    def check(self, inflight: int, priority: str = INTERACTIVE,
              deadline: Optional[float] = None) -> None:
        """Admit or shed one gateway arrival; raises :class:`Overloaded`
        on shed, returns normally (and accounts the admit) otherwise."""
        now = self.env.now
        est = self.limiter.service_estimate()
        if deadline is not None and deadline - now < est:
            self._shed(now, priority, "deadline", retry_after=0.0)
        if self.armed():
            limit = self.limiter.limit
            effective = limit if priority == INTERACTIVE else int(limit * BATCH_SHARE)
            if inflight >= max(1, effective):
                self._shed(now, priority, "concurrency-limit",
                           retry_after=self._retry_after(inflight, est))
        self.admitted[priority] = self.admitted.get(priority, 0) + 1
        for observe in self.admission_decided:
            observe(now, True, priority, "ok")

    def _shed(self, now: float, priority: str, reason: str,
              retry_after: float) -> None:
        self.shed[reason] = self.shed.get(reason, 0) + 1
        self.shed_by_priority[priority] = self.shed_by_priority.get(priority, 0) + 1
        for observe in self.admission_decided:
            observe(now, False, priority, reason)
        raise Overloaded("gateway", reason, retry_after=retry_after,
                         priority=priority)

    def _retry_after(self, inflight: int, est: float) -> float:
        limit = max(1, self.limiter.limit)
        over = max(0, inflight - limit)
        return est * (1.0 + over / limit)

    # ------------------------------------------------------------------
    # Feedback signals
    # ------------------------------------------------------------------
    def on_success(self, latency: float) -> None:
        """An admitted invocation completed OK end-to-end."""
        self.limiter.on_success(latency)

    def on_downstream_overload(self) -> None:
        """An admitted invocation was shed deeper in the stack (engine or
        storage window): multiplicative decrease at the gateway."""
        self.downstream_overloads += 1
        self.limiter.on_overload()

    # ------------------------------------------------------------------
    # Node registration + verdict snapshot
    # ------------------------------------------------------------------
    def register_node(self, node: "NodeAdmission") -> None:
        self.nodes.append(node)

    def total_shed(self) -> int:
        return (sum(self.shed.values())
                + sum(n.window.shed for n in self.nodes))

    def snapshot(self) -> dict:
        """Deterministic counters for verdict artifacts."""
        return {
            "limiter": self.limiter.snapshot(),
            "admitted": dict(sorted(self.admitted.items())),
            "shed": dict(sorted(self.shed.items())),
            "shed_by_priority": dict(sorted(self.shed_by_priority.items())),
            "downstream_overloads": self.downstream_overloads,
            "nodes": [n.snapshot() for n in sorted(self.nodes,
                                                   key=lambda n: n.resource)],
        }


class NodeAdmission:
    """Bounded window + CoDel guard for one engine or storage node."""

    def __init__(
        self,
        env,
        resource: str,
        service_time: float,
        controller: Optional[AdmissionController] = None,
    ):
        self.env = env
        self.resource = resource
        self.service_time = service_time
        self.window = BoundedWindow(WINDOW)
        self.codel = CoDelShedder()
        self.controller = controller
        if controller is not None:
            controller.register_node(self)

    def try_enter(self, priority: str = INTERACTIVE) -> None:
        """Admit one arrival into the node's window or raise
        :class:`Overloaded`. Callers must pair with :meth:`exit`."""
        now = self.env.now
        armed = self.controller is None or self.controller.armed()
        if armed:
            est_delay = self.window.inflight * self.service_time
            if self.window.full:
                self.window.shed += 1
                self._notify(now, priority, "window-full")
                raise Overloaded(self.resource, "window-full",
                                 retry_after=est_delay, priority=priority)
            if self.codel.should_drop(now, est_delay):
                self.window.shed += 1
                self._notify(now, priority, "queue-delay")
                raise Overloaded(self.resource, "queue-delay",
                                 retry_after=max(est_delay, CODEL_TARGET),
                                 priority=priority)
        self.window.enter()

    def exit(self) -> None:
        self.window.exit()

    def guard(self, component, point: str) -> None:
        """Pass every call of ``component.<point>`` through this window: a
        shed raises :class:`Overloaded` to the caller before the work
        joins the node's queue (storage -> engine -> gateway
        backpressure). The point is either a generator function, whose
        generator holds its window slot until it returns or raises, or a
        deferred-reply handler, whose event holds it until processed."""
        def wrapper(inner):
            def guarded(*args):
                self.try_enter()
                try:
                    work = inner(*args)
                except BaseException:
                    self.exit()
                    raise
                if isinstance(work, Event):
                    work.callbacks.append(self._exit_after)
                    return work
                return self._exit_after_all(work)
            return guarded

        wrap(component, point, wrapper, "admission")

    def _exit_after(self, event: Event) -> None:
        self.exit()

    def _exit_after_all(self, work: Generator) -> Generator:
        try:
            return (yield from work)
        finally:
            self.exit()

    def _notify(self, now: float, priority: str, reason: str) -> None:
        if self.controller is not None:
            for observe in self.controller.admission_decided:
                observe(now, False, priority, f"{self.resource}:{reason}")

    def snapshot(self) -> dict:
        return {
            "resource": self.resource,
            "capacity": self.window.capacity,
            "inflight": self.window.inflight,
            "peak": self.window.peak,
            "admitted": self.window.admitted,
            "shed": self.window.shed,
            "codel_dropped": self.codel.dropped,
        }
