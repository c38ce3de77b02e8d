"""The elastic control loop: a kernel process that resizes the cluster.

The :class:`Autoscaler` runs on the controller's node and, every
:data:`SAMPLE_INTERVAL` of virtual time, samples load signals
(:class:`~repro.elastic.signals.SignalSampler`), feeds them through one
:class:`~repro.elastic.policy.HysteresisPolicy` per fleet, and applies
the decisions through ``Controller.reconfigure_serialized`` with
minimal-movement placement — so an autoscaling reconfiguration never
races the failure detector and moves as few storage replicas as the
balance quota allows.

Scale-in follows a strict decommission protocol (``docs/elasticity.md``):

1. **Un-route** — the victim leaves the gateway's active set, so no new
   invocations land on it.
2. **Seal + install** — the serialized reconfiguration seals the current
   term (aborting the victim's in-flight appends the same way failure
   recovery does) and installs a term that excludes it.
3. **Fence** — the victim is network-isolated (PR 4's fencing hook), so
   a zombie cannot serve stale reads or accept stray appends afterwards.

Fencing requires the resilience layer: reads of *old-term* seqnums still
route to the previous replica sets, and with ``ndata`` replicas the
engine's read failover rides over the fenced one. Without
``cluster.enable_resilience()`` the autoscaler un-routes and removes but
does not isolate.

Everything is deterministic: decisions depend only on virtual time and
sampled counters, so same-seed runs produce byte-identical scaling
timelines (:attr:`Autoscaler.events`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.controller import ReconfigurationFailed
from repro.elastic.policy import HysteresisPolicy, PolicyConfig
from repro.elastic.signals import SignalSampler
from repro.obs.registry import MetricsRegistry
from repro.sim.kernel import Interrupt

#: Virtual seconds between two samples of the control loop.
SAMPLE_INTERVAL = 0.05


class Autoscaler:
    """Load-driven scale-out/scale-in of the engine and storage fleets."""

    def __init__(
        self,
        cluster,
        engine_policy: Optional[HysteresisPolicy] = None,
        storage_policy: Optional[HysteresisPolicy] = None,
    ):
        self.cluster = cluster
        self.controller = cluster.controller
        self.env = cluster.env
        self.registry = MetricsRegistry()
        self.sampler = SignalSampler(cluster, self.registry)

        #: Full pools in construction order; scale-out takes the first
        #: non-active name, scale-in drops the last active one — func-0
        #: and storage-0 are the last to go.
        self.engine_pool: List[str] = [f.name for f in cluster.function_nodes]
        self.storage_pool: List[str] = [s.name for s in cluster.storage_nodes]
        self.active_engines: List[str] = list(self.controller.engine_fleet())
        self.active_storage: List[str] = list(self.controller.storage_fleet())

        ndata = cluster.config.ndata
        self.engine_policy = engine_policy or HysteresisPolicy(PolicyConfig(
            min_nodes=1, max_nodes=len(self.engine_pool),
        ))
        self.storage_policy = storage_policy or HysteresisPolicy(PolicyConfig(
            min_nodes=min(ndata, len(self.storage_pool)),
            max_nodes=len(self.storage_pool),
            breach_down=6, cooldown_down=2.0,
        ))

        #: Deterministic decision log: one dict per applied (or failed)
        #: fleet change, JSON-serializable.
        self.events: List[Dict] = []
        self.reconfig_failures = 0
        #: True while a scaling reconfiguration is in flight — admission
        #: control arms shedding during this window (capacity cannot be
        #: added mid-reconfiguration; see ``repro.admission``).
        self.reconfiguring = False
        self._fenced: set = set()
        self._proc = None
        self._node_seconds = 0.0
        self._acct_t = self.env.now
        self._acct_nodes = len(self.active_engines) + len(self.active_storage)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Spawn the control loop on the controller's node."""
        if self._proc is None:
            self._proc = self.controller.node.spawn(
                self._loop(), name="elastic-autoscaler"
            )
        return self._proc

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("autoscaler stopped")
        self._proc = None

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _accrue(self, now: float) -> None:
        self._node_seconds += (now - self._acct_t) * self._acct_nodes
        self._acct_t = now

    def node_seconds(self, now: Optional[float] = None) -> float:
        """Provisioned node-seconds (engines + storage) so far — the
        cost side of the elasticity benchmark."""
        now = self.env.now if now is None else now
        return self._node_seconds + (now - self._acct_t) * self._acct_nodes

    def can_scale_out(self) -> bool:
        """Whether the engine fleet still has scale-out headroom: below
        the policy ceiling with an alive, non-active pool node to add.
        Admission control keeps load shedding disarmed while this holds —
        growing the fleet is the first response to a surge."""
        ceiling = self.engine_policy.config.max_nodes
        if ceiling is not None and len(self.active_engines) >= ceiling:
            return False
        active = set(self.active_engines)
        return any(
            name not in active
            and self.controller.components[name].node.alive
            for name in self.engine_pool
        )

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def _loop(self):
        try:
            while True:
                yield self.env.timeout(SAMPLE_INTERVAL)
                if self.controller.current_term is None:
                    continue
                now = self.env.now
                signals = self.sampler.sample(
                    self.active_engines, self.active_storage
                )
                self.registry.gauge("elastic.fleet.engines").record(
                    now, len(self.active_engines)
                )
                self.registry.gauge("elastic.fleet.storage").record(
                    now, len(self.active_storage)
                )
                tenancy = self.cluster.tenancy
                if tenancy is not None:
                    # Per-tenant demand (windowed arrival rate): the signal
                    # a tenant-aware scaling policy keys on, and the lane
                    # that shows *whose* traffic drove a scale-out.
                    for tenant, rps in tenancy.demand().items():
                        self.registry.gauge(
                            f"elastic.tenant.{tenant}.demand"
                        ).record(now, rps)
                e_delta = self.engine_policy.observe(
                    now, signals["engine_util"], len(self.active_engines)
                )
                s_delta = self.storage_policy.observe(
                    now, signals["storage_util"], len(self.active_storage)
                )
                if e_delta or s_delta:
                    yield from self._apply(e_delta, s_delta, signals)
        except Interrupt:
            return

    def _resize(self, active: Sequence[str], pool: Sequence[str],
                delta: int) -> List[str]:
        """The new active list after ``delta``, in pool order. Scale-out
        takes the first alive non-active pool nodes; scale-in drops the
        highest-ranked active ones."""
        active_set = set(active)
        if delta > 0:
            joiners = [
                name for name in pool
                if name not in active_set
                and self.controller.components[name].node.alive
            ][:delta]
            active_set.update(joiners)
        elif delta < 0:
            victims = [name for name in pool if name in active_set][delta:]
            active_set.difference_update(victims)
        return [name for name in pool if name in active_set]

    def _set_routing(self, engine_names: Sequence[str]) -> None:
        self.cluster.gateway.set_active_nodes(engine_names)

    def _fence(self, name: str) -> None:
        if self.cluster.resil is not None:
            self.cluster.net.isolate(name)
            self._fenced.add(name)

    def _unfence(self, name: str) -> None:
        if name in self._fenced:
            self.cluster.net.unisolate(name)
            self._fenced.discard(name)

    def _apply(self, e_delta: int, s_delta: int, signals: Dict):
        now = self.env.now
        new_engines = self._resize(self.active_engines, self.engine_pool, e_delta)
        new_storage = self._resize(self.active_storage, self.storage_pool, s_delta)
        if new_engines == self.active_engines and new_storage == self.active_storage:
            return
        e_added = [n for n in new_engines if n not in self.active_engines]
        e_removed = [n for n in self.active_engines if n not in new_engines]
        s_added = [n for n in new_storage if n not in self.active_storage]
        s_removed = [n for n in self.active_storage if n not in new_storage]

        # Joiners first: they must be reachable before the new term
        # assigns them shards or replicas.
        refence = [n for n in e_added + s_added if n in self._fenced]
        for name in e_added + s_added:
            self._unfence(name)
        # Un-route engine victims before sealing (step 1 of the protocol).
        self._set_routing(new_engines)
        self.reconfiguring = True
        try:
            new_term = yield from self.controller.reconfigure_serialized(
                engine_names=new_engines,
                storage_names=new_storage,
                minimal_movement=True,
            )
        except ReconfigurationFailed:
            self.reconfiguring = False
            self.reconfig_failures += 1
            self._set_routing(self.active_engines)
            for name in refence:
                self._fence(name)
            self.engine_policy.record_change(now)
            self.storage_policy.record_change(now)
            self.events.append({
                "t": round(now, 9),
                "action": "reconfig-failed",
                "engines": list(self.active_engines),
                "storage": list(self.active_storage),
            })
            return

        self.reconfiguring = False
        self._accrue(self.env.now)
        self.active_engines = new_engines
        self.active_storage = new_storage
        self._acct_nodes = len(new_engines) + len(new_storage)
        # Fence victims last (step 3): the new term no longer references
        # them for writes, and old-term reads fail over across replicas.
        for name in e_removed + s_removed:
            self._fence(name)
        self.engine_policy.record_change(self.env.now)
        self.storage_policy.record_change(self.env.now)
        self.events.append({
            "t": round(self.env.now, 9),
            "action": "scale-out" if (e_added or s_added) else "scale-in",
            "term": new_term.term_id,
            "engines": list(new_engines),
            "storage": list(new_storage),
            "added": e_added + s_added,
            "removed": e_removed + s_removed,
            "engine_util": round(signals["engine_util"], 9),
            "storage_util": round(signals["storage_util"], 9),
        })

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def scale_events(self, action: Optional[str] = None) -> List[Dict]:
        if action is None:
            return list(self.events)
        return [e for e in self.events if e["action"] == action]

    def reaction_time(self, since: float) -> Optional[float]:
        """Time from ``since`` to the first scale-out applied at or after
        it — the benchmark's scale-up reaction metric."""
        for event in self.events:
            if event["action"] == "scale-out" and event["t"] >= since:
                return event["t"] - since
        return None
