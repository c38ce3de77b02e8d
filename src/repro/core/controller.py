"""The Boki controller: failure detection and reconfiguration (§4.5).

Reconfiguration seals every current metalog, determines each metalog's
final tail, announces the sealed tails to subscribers (so engines finish
their indices and abort unordered appends), and installs the next term's
configuration. Sealing follows Delos: the seal command makes secondaries
commit to rejecting future entries; a quorum of seal acks completes the
seal, and each ack carries the replica length so the controller takes the
maximum as the final tail.

Failure detection uses coordination-service sessions: every data-plane node
registers an ephemeral znode; when a node's session expires the controller
reconfigures around it.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence

from repro.coord import CoordClient, WatchEvent
from repro.core.config import BokiConfig, TermConfig
from repro.core.placement import build_term
from repro.sim.kernel import Environment, Event, Interrupt
from repro.sim.network import Network, RpcError, RpcTimeout
from repro.sim.node import Node

NODES_PREFIX = "/boki/nodes"
CONFIG_PATH = "/boki/config"
#: Modelled delay between installing a config and nodes observing it:
#: the ZooKeeper quorum commit of the new configuration plus watch
#: propagation and session sync on every node. Calibrated so the whole
#: reconfiguration protocol lands in the paper's measured 15.7-18.1 ms
#: (§7.1, Figure 10).
CONFIG_PROPAGATION_DELAY = 10e-3


class ReconfigurationFailed(Exception):
    """Could not seal a quorum for some metalog."""


class ReconfigurationInProgress(Exception):
    """A reconfiguration is already executing.

    Seal-then-install must never interleave: two concurrent drivers (the
    failure detector and the autoscaler) sealing and installing terms
    against each other would double-seal metalogs and install terms out
    of order. Callers either drop the request — the failure detector
    does, because the in-flight reconfiguration already observes current
    liveness — or queue behind it via
    :meth:`Controller.reconfigure_serialized`.
    """


class Controller:
    """The (leader) controller process."""

    def __init__(
        self,
        env: Environment,
        net: Network,
        name: str,
        config: BokiConfig,
    ):
        self.env = env
        self.net = net
        self.config = config
        self.node = net.register(Node(env, name, cpu_capacity=8))
        self.coord = CoordClient(env, net, self.node)
        self.current_term: Optional[TermConfig] = None
        #: Live node name lists, updated on failure detection.
        self.engine_names: List[str] = []
        self.storage_names: List[str] = []
        self.sequencer_names: List[str] = []
        #: Component registry: name -> object with .configure(term_config)
        #: and .node (the cluster wires this; stands in for config watches).
        self.components: Dict[str, object] = {}
        self.reconfig_count = 0
        self.last_reconfig_duration: Optional[float] = None
        self._reconfiguring = False
        #: Active fleet subsets (None = every registered node). The
        #: autoscaler narrows/widens these; terms are built from the
        #: active fleet so registered-but-decommissioned spares carry no
        #: shards or replicas.
        self.active_engines: Optional[List[str]] = None
        self.active_storage: Optional[List[str]] = None
        self._reconfig_waiters: List[Event] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register_component(self, name: str, component: object, role: str) -> None:
        self.components[name] = component
        if role == "engine":
            self.engine_names.append(name)
        elif role == "storage":
            self.storage_names.append(name)
        elif role == "sequencer":
            self.sequencer_names.append(name)
        else:
            raise ValueError(f"unknown role {role!r}")

    def live(self, names: Sequence[str]) -> List[str]:
        return [n for n in names if self.components[n].node.alive]

    def engine_fleet(self) -> List[str]:
        """The engine names terms are currently built from."""
        if self.active_engines is None:
            return list(self.engine_names)
        return [n for n in self.active_engines if n in self.components]

    def storage_fleet(self) -> List[str]:
        """The storage names terms are currently built from."""
        if self.active_storage is None:
            return list(self.storage_names)
        return [n for n in self.active_storage if n in self.components]

    # ------------------------------------------------------------------
    # Bootstrap and term installation
    # ------------------------------------------------------------------
    def install_initial_term(
        self,
        num_logs: int,
        index_engines_per_log: Optional[int] = None,
    ) -> Generator:
        term_config = build_term(
            self.config,
            term_id=1,
            engine_names=self.engine_fleet(),
            storage_names=self.storage_fleet(),
            sequencer_names=self.sequencer_names[: self.config.nmeta],
            num_logs=num_logs,
            index_engines_per_log=index_engines_per_log,
        )
        yield from self._install(term_config)
        return term_config

    def _install(self, term_config: TermConfig) -> Generator:
        exists = yield from self.coord.exists(CONFIG_PATH)
        if exists:
            yield from self.coord.set(CONFIG_PATH, term_config.term_id)
        else:
            yield from self.coord.create(CONFIG_PATH, term_config.term_id)
        yield self.env.timeout(CONFIG_PROPAGATION_DELAY)
        # Sequencers first so metalog replicas exist before engines append.
        ordered = sorted(
            self.components.items(),
            key=lambda kv: 0 if kv[0] in self.sequencer_names else 1,
        )
        for name, component in ordered:
            if component.node.alive:
                component.configure(term_config)
        self.current_term = term_config

    # ------------------------------------------------------------------
    # Reconfiguration (§4.5)
    # ------------------------------------------------------------------
    def reconfigure(
        self,
        num_logs: Optional[int] = None,
        sequencer_names: Optional[List[str]] = None,
        index_engines_per_log: Optional[int] = None,
        engine_names: Optional[List[str]] = None,
        storage_names: Optional[List[str]] = None,
        minimal_movement: bool = False,
    ) -> Generator:
        """Seal the current term and install the next one.

        ``sequencer_names`` selects the next term's sequencer set (the §7.1
        experiment reconfigures to a new set of provisioned sequencers).
        ``engine_names``/``storage_names`` select the next term's data-plane
        fleets (scale-out/scale-in); a successful install makes them the
        active fleets for later failure-driven reconfigurations.
        ``minimal_movement`` hands the previous term to placement so
        surviving storage replicas stay put instead of rehashing.

        Raises :class:`ReconfigurationInProgress` when a reconfiguration
        is already executing — overlapping seal/install protocols must
        not interleave.
        """
        if self._reconfiguring:
            raise ReconfigurationInProgress(
                f"term {self.current_term.term_id if self.current_term else '?'} "
                "is already being reconfigured"
            )
        self._reconfiguring = True
        started = self.env.now
        try:
            old = self.current_term
            assert old is not None, "no term installed"
            # 1. Seal every metalog of the current term.
            for log_id, asg in old.logs.items():
                final_len = yield from self._seal_log(old.term_id, log_id, asg)
                payload = {
                    "term": old.term_id,
                    "log_id": log_id,
                    "final_len": final_len,
                    "sequencers": list(asg.sequencers),
                }
                for subscriber in asg.subscribers():
                    self.net.send(self.node, subscriber, "log.sealed", payload)
            # 2. Build and install the next term.
            engine_fleet = (engine_names if engine_names is not None
                            else self.engine_fleet())
            storage_fleet = (storage_names if storage_names is not None
                             else self.storage_fleet())
            engines = self.live(engine_fleet)
            storage = self.live(storage_fleet)
            seqs = sequencer_names if sequencer_names is not None else self.live(
                self.sequencer_names
            )
            seqs = [s for s in seqs if self.components[s].node.alive][: self.config.nmeta]
            new_term = build_term(
                self.config,
                term_id=old.term_id + 1,
                engine_names=engines,
                storage_names=storage,
                sequencer_names=seqs,
                num_logs=num_logs if num_logs is not None else len(old.logs),
                index_engines_per_log=index_engines_per_log,
                prev=old if minimal_movement else None,
            )
            yield from self._install(new_term)
            if engine_names is not None:
                self.active_engines = list(engine_names)
            if storage_names is not None:
                self.active_storage = list(storage_names)
            self.reconfig_count += 1
            self.last_reconfig_duration = self.env.now - started
            return new_term
        finally:
            self._reconfiguring = False
            waiters, self._reconfig_waiters = self._reconfig_waiters, []
            for waiter in waiters:
                if not waiter.triggered:
                    waiter.succeed(None)

    def reconfigure_serialized(self, **kwargs) -> Generator:
        """Queue behind any in-flight reconfiguration, then reconfigure.

        The serialized fallback for drivers that must not drop their
        request (the autoscaler's scaling decision stays valid after the
        failure detector's reconfiguration completes). FIFO wake-up: each
        waiter re-checks the flag, so concurrent serialized callers run
        one term apiece in arrival order.
        """
        while self._reconfiguring:
            waiter = Event(self.env)
            self._reconfig_waiters.append(waiter)
            yield waiter
        result = yield from self.reconfigure(**kwargs)
        return result

    def _seal_log(self, term_id: int, log_id: int, asg) -> Generator:
        """Seal one metalog; returns the final length (max over a quorum)."""
        lengths: List[int] = []
        calls = [
            self.net.rpc(
                self.node, seq, "seq.seal",
                {"term": term_id, "log_id": log_id},
                timeout=0.05,
            )
            for seq in asg.sequencers
        ]
        for call in calls:
            try:
                lengths.append((yield call))
            except (RpcError, RpcTimeout):
                continue
        if len(lengths) < self.config.quorum():
            raise ReconfigurationFailed(
                f"sealed only {len(lengths)}/{len(asg.sequencers)} replicas of "
                f"metalog (term={term_id}, log={log_id})"
            )
        return max(lengths)

    # ------------------------------------------------------------------
    # Failure detection
    # ------------------------------------------------------------------
    def start_failure_detector(self) -> None:
        """Watch the coordination service for node-session expiry and
        reconfigure when a data-plane node dies."""
        self.coord.on_watch(self._on_membership_event)
        self.node.spawn(self._watch_members(), name="controller:watch-members")

    def _watch_members(self) -> Generator:
        try:
            yield from self.coord.watch_children(NODES_PREFIX)
        except Interrupt:
            return

    def _on_membership_event(self, event: WatchEvent) -> None:
        if event.kind != "children":
            return
        self.node.spawn(self._handle_membership_change(), name="controller:membership")

    def _handle_membership_change(self) -> Generator:
        try:
            registered = yield from self.coord.children(NODES_PREFIX)
            live = {path.rsplit("/", 1)[1] for path in registered}
            yield from self.coord.watch_children(NODES_PREFIX)  # re-arm
            if self.current_term is None:
                return
            in_use = set()
            for asg in self.current_term.logs.values():
                in_use.update(asg.sequencers)
                in_use.update(asg.storage_nodes())
                in_use.update(asg.shards)
            dead = {n for n in in_use if n in self.components and n not in live}
            if dead:
                try:
                    yield from self.reconfigure()
                except ReconfigurationInProgress:
                    # The in-flight reconfiguration observes current
                    # liveness; this event is redundant, not lost.
                    return
        except Interrupt:
            return
