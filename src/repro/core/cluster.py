"""Cluster assembly: wire a full Boki deployment in one call.

:class:`BokiCluster` builds the simulation environment, network, control
plane (coordination service + controller), gateway, function nodes with
their LogBook engines, storage nodes, and sequencer nodes — the topology of
Figure 2 — and installs the initial term. It also provides the client-side
helpers the benchmarks and examples use.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.coord import CoordClient, CoordServer
from repro.coord.client import SERVER_NAME
from repro.core.config import BokiConfig, TermConfig
from repro.core.controller import NODES_PREFIX, Controller
from repro.core.engine import LogBookEngine
from repro.core.logbook import LogBook
from repro.core.metalog import DEFAULT_TENANT
from repro.faas import FunctionContext, FunctionNode, Gateway
from repro.sim import Environment, Network, Node
from repro.sim.randvar import RandomStreams


class BokiCluster:
    """A complete simulated Boki deployment."""

    def __init__(
        self,
        num_function_nodes: int = 4,
        num_storage_nodes: int = 3,
        num_sequencer_nodes: int = 3,
        num_logs: int = 1,
        index_engines_per_log: Optional[int] = None,
        config: Optional[BokiConfig] = None,
        seed: int = 0,
        workers_per_node: int = 64,
        use_coord_sessions: bool = False,
        num_spare_function_nodes: int = 0,
        num_spare_storage_nodes: int = 0,
    ):
        self.config = config or BokiConfig()
        self.env = Environment()
        self.streams = RandomStreams(seed=seed)
        self.net = Network(self.env, self.streams)

        # Control plane.
        coord_node = self.net.register(Node(self.env, SERVER_NAME, cpu_capacity=16))
        # Reached only through the handlers it registers on coord_node.
        CoordServer(self.env, self.net, coord_node)
        self.controller = Controller(self.env, self.net, "controller", self.config)

        # FaaS plane.
        self.gateway = Gateway(self.env, self.net)
        self.function_nodes: List[FunctionNode] = []
        self.engines: Dict[str, LogBookEngine] = {}
        # Spares are fully wired (gateway, controller, sessions) but sit
        # outside the initial active fleet — the autoscaler's headroom.
        for i in range(num_function_nodes + num_spare_function_nodes):
            fnode = FunctionNode(self.env, self.net, f"func-{i}", workers=workers_per_node)
            self.gateway.add_function_node(fnode)
            self.function_nodes.append(fnode)
            engine = LogBookEngine(self.env, self.net, fnode.node, self.config)
            self.engines[fnode.name] = engine
            self.controller.register_component(fnode.name, engine, "engine")

        # Storage plane.
        from repro.core.storage import StorageNode

        self.storage_nodes: List[StorageNode] = []
        for i in range(num_storage_nodes + num_spare_storage_nodes):
            snode = StorageNode(self.env, self.net, f"storage-{i}", self.config)
            self.storage_nodes.append(snode)
            self.controller.register_component(snode.name, snode, "storage")

        if num_spare_function_nodes:
            base_engines = [f"func-{i}" for i in range(num_function_nodes)]
            self.controller.active_engines = base_engines
            self.gateway.set_active_nodes(base_engines)
        if num_spare_storage_nodes:
            self.controller.active_storage = [
                f"storage-{i}" for i in range(num_storage_nodes)
            ]

        # Sequencer plane.
        from repro.core.sequencer import SequencerNode

        self.sequencer_nodes: List[SequencerNode] = []
        for i in range(num_sequencer_nodes):
            qnode = SequencerNode(self.env, self.net, f"seq-{i}", self.config)
            self.sequencer_nodes.append(qnode)
            self.controller.register_component(qnode.name, qnode, "sequencer")

        # Client node for external invocations / standalone logbooks.
        self.client_node = self.net.register(Node(self.env, "client", cpu_capacity=64))
        self._num_logs = num_logs
        self._index_engines_per_log = index_engines_per_log
        self._use_coord_sessions = use_coord_sessions
        self.term: Optional[TermConfig] = None
        self._book_rr = itertools.count()
        self.obs = None
        self.resil = None
        self.elastic = None
        self.monitor = None
        self.admission = None
        self.tenancy = None

    # ------------------------------------------------------------------
    # Observability (repro.obs)
    # ------------------------------------------------------------------
    def enable_observability(self):
        """Switch on distributed tracing for every component; returns the
        :class:`~repro.obs.ObsRecorder`.

        Tracing is purely observational — it creates no simulation events,
        so enabling it does not change virtual-time results.
        """
        from repro.obs import ObsRecorder

        if self.obs is not None:
            return self.obs
        obs = self.obs = ObsRecorder(self.env)
        obs.attach(self)
        return obs

    # ------------------------------------------------------------------
    # Online monitoring (repro.monitor)
    # ------------------------------------------------------------------
    def enable_monitoring(self, context=None):
        """Switch on the online invariant monitors for every component,
        the SLO burn-rate alerting layer and the flight recorder; returns
        the :class:`~repro.monitor.MonitorHub`. ``context`` labels every
        flight record (a chaos run passes its scenario and seed).

        Monitors observe, never perturb: taps are signal subscribers,
        the alert evaluator is a read-only kernel process, and no RNG is
        consumed — same-seed runs stay byte-identical with monitoring on
        or off. Scenario-local objects (a BokiQueue, the DynamoDB model, a
        FaultInjector) are attached with ``hub.attach(obj)``.
        """
        from repro.obs.monitor import MonitorHub

        if self.monitor is not None:
            return self.monitor
        hub = self.monitor = MonitorHub(self.env, context)
        hub.attach(self)
        self.env.process(hub.alerts.run(self.env), name="monitor-alerts")
        return hub

    # ------------------------------------------------------------------
    # Resilience (repro.resil)
    # ------------------------------------------------------------------
    def enable_resilience(self):
        """Switch on end-to-end failure recovery for every component:
        gateway failover + client invoke retries, storage-replica and
        index-engine read failover, and trim retries through
        reconfiguration. Returns the :class:`~repro.resil.Resilience` hub.

        Determinism: on a fault-free run the layer consumes no
        randomness and adds no virtual-time events, so same-seed results
        are byte-identical with the layer on or off.
        """
        from repro.resil import Resilience

        if self.resil is not None:
            return self.resil
        resil = self.resil = Resilience(self.env, self.net, self.streams)
        resil.attach(self)
        return resil

    # ------------------------------------------------------------------
    # Admission control (repro.admission)
    # ------------------------------------------------------------------
    def enable_admission(self, limiter=None):
        """Switch on end-to-end overload control: the gateway's adaptive
        concurrency limiter + deadline-aware early rejection, and bounded
        inflight windows with CoDel-style shedding at every engine and
        storage node. Returns the
        :class:`~repro.admission.AdmissionController`.

        Integrates with the other layers automatically: with
        ``enable_elasticity`` attached, shedding stays disarmed while the
        fleet can still scale out; with ``enable_monitoring``, admission
        decisions feed the shed-rate window and burn-rate alerting; with
        ``enable_resilience``, shed requests are retried after the
        shedder's retry-after hint without charging the retry budget.

        Determinism: every admission decision is plain arithmetic over
        observed state — no RNG, no extra kernel events — so fault-free,
        under-capacity runs stay byte-identical with the layer on or off.
        """
        from repro.admission import AdmissionController

        if self.admission is not None:
            return self.admission
        controller = self.admission = AdmissionController(self.env, limiter)
        controller.attach(self)
        if self.monitor is not None:
            self.monitor.attach(controller)
        return controller

    # ------------------------------------------------------------------
    # Elasticity (repro.elastic)
    # ------------------------------------------------------------------
    def enable_elasticity(self, engine_policy=None, storage_policy=None):
        """Attach and start the load-driven autoscaler, with a
        :class:`~repro.elastic.HysteresisPolicy` per fleet (see
        :class:`~repro.elastic.Autoscaler` for the defaults). Build the
        cluster with ``num_spare_function_nodes``/``num_spare_storage_nodes``
        so scale-out has headroom. Returns the autoscaler.
        """
        from repro.elastic import Autoscaler

        if self.elastic is not None:
            return self.elastic
        self.elastic = Autoscaler(self, engine_policy, storage_policy)
        self.elastic.start()
        return self.elastic

    # ------------------------------------------------------------------
    # Multi-tenancy (repro.tenant)
    # ------------------------------------------------------------------
    def enable_tenancy(self):
        """Switch on first-class multi-tenancy: per-tenant log spaces,
        QoS (token-bucket rate limits + weighted-fair admission), and
        per-tenant accounting. Returns the
        :class:`~repro.tenant.TenancyHub`.

        Register tenants on the hub's ``registry``, then label work
        with ``invoke(..., tenant="acme")`` / ``logbook(...,
        tenant="acme")``. Unlabelled work belongs to the reserved
        ``default`` tenant, whose log space maps identically — so a
        cluster that enables tenancy but registers no tenants runs
        byte-identical to one that never did.
        """
        from repro.tenant import TenancyHub

        if self.tenancy is not None:
            return self.tenancy
        hub = self.tenancy = TenancyHub(self.env)
        hub.attach(self)
        if self.monitor is not None:
            self.monitor.attach(hub)
        return hub

    def _scoped(self, tenant: Optional[str],
                book_id: Optional[int]) -> Tuple[Optional[str], Optional[int]]:
        """The tenant label a book or invocation should carry, and the raw
        ``book_id`` scoped into that tenant's log space. With tenancy
        disabled, labels stay off payloads entirely (byte-identical seeds)
        and naming a non-default tenant is an error rather than a silently
        unenforced contract."""
        if self.tenancy is not None:
            tenant = self.tenancy.resolve(tenant)
            return tenant, self.tenancy.registry.scope_book(tenant, book_id)
        if tenant is not None and tenant != DEFAULT_TENANT:
            raise ValueError(
                f"tenant {tenant!r} given but tenancy is not enabled: call "
                f"BokiCluster.enable_tenancy() first"
            )
        return None, book_id

    def metrics_snapshot(self):
        """Current cluster metrics as a :class:`~repro.obs.MetricsRegistry`
        (component counters plus any live obs metrics)."""
        from repro.obs import registry_from_cluster

        registry = self.obs.metrics if self.obs is not None else None
        return registry_from_cluster(self, registry)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Generator:
        """Install the initial term (and optionally node sessions +
        failure detection); yield from this inside a process, or call
        :meth:`boot` to run it synchronously."""
        if self._use_coord_sessions:
            yield from self._register_sessions()
            self.controller.start_failure_detector()
        self.term = yield from self.controller.install_initial_term(
            num_logs=self._num_logs,
            index_engines_per_log=self._index_engines_per_log,
        )
        return self.term

    def boot(self) -> TermConfig:
        """Run the simulation until the cluster is ready."""
        proc = self.env.process(self.start(), name="cluster-boot")
        return self.env.run_until(proc, limit=60.0)

    def _register_sessions(self) -> Generator:
        """Each data-plane node registers an ephemeral znode so the
        controller can detect its failure."""
        for name, component in self.controller.components.items():
            client = CoordClient(self.env, self.net, component.node)
            component.coord_client = client
            yield from client.start_session()
            yield from client.create(f"{NODES_PREFIX}/{name}", name, ephemeral=True)

    # ------------------------------------------------------------------
    # Client helpers
    # ------------------------------------------------------------------
    def engine_of(self, node_name: str) -> LogBookEngine:
        return self.engines[node_name]

    def any_engine(self) -> LogBookEngine:
        return next(iter(self.engines.values()))

    def logbook(self, book_id: int, engine: Optional[LogBookEngine] = None,
                tenant: Optional[str] = None) -> LogBook:
        """A LogBook handle outside any function (microbenchmarks, tests);
        bound to ``engine`` or round-robin over the function nodes. With
        a ``tenant`` label (tenancy enabled), the book id is namespaced
        into the tenant's log space, and the handle namespaces its
        explicit tags into the same space."""
        if engine is None:
            names = list(self.engines)
            engine = self.engines[names[next(self._book_rr) % len(names)]]
        _, book_id = self._scoped(tenant, book_id)
        return LogBook(engine, book_id)

    def register_function(self, fn_name: str, handler: Callable) -> None:
        self.gateway.register_function(fn_name, handler)

    def invoke(self, fn_name: str, arg: Any = None, book_id: Optional[int] = None,
               timeout: Optional[float] = None, policy=None,
               priority: str = "interactive",
               tenant: Optional[str] = None) -> Generator:
        """External invocation from the cluster's client node.

        ``priority`` is the admission class (``"interactive"`` or
        ``"batch"``, see :mod:`repro.admission`) — ignored unless
        ``enable_admission`` is on, where batch traffic sheds first.
        ``tenant`` labels the invocation for per-tenant QoS and log-space
        isolation (``repro.tenant``); with tenancy enabled, unlabelled
        invocations belong to the reserved ``default`` tenant.
        """
        tenant, book_id = self._scoped(tenant, book_id)
        return (
            yield from self.gateway.external_invoke(
                self.client_node, fn_name, arg, book_id=book_id,
                timeout=timeout, policy=policy, priority=priority,
                tenant=tenant,
            )
        )

    def logbook_for(self, ctx: FunctionContext) -> LogBook:
        """The LogBook bound to a function context — looks up the engine
        co-located on the context's node (what Boki's runtime does when a
        function makes LogBook API calls). The context's book id arrives
        already scoped into its tenant's log space."""
        return LogBook.for_context(self.engines[ctx.node.name], ctx)

    def run(self, until: float) -> None:
        self.env.run(until=until)

    def drive(self, gen: Generator, limit: float = 600.0) -> Any:
        """Run one client process to completion."""
        proc = self.env.process(gen)
        return self.env.run_until(proc, limit=limit)
