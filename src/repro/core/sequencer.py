"""Sequencer nodes: metalog replicas and the primary driver (§4.1, §4.3).

Every metalog is stored by ``nmeta`` sequencers; one is primary. Only the
primary appends: it aggregates the storage nodes' progress vectors into the
global progress vector (element-wise minimum per shard over the shard's
backers), and periodically appends it — together with any queued trim
commands — as a new metalog entry. An entry is appended once a quorum of
sequencers (counting the primary) acknowledges it; the primary always waits
for the previous entry before issuing the next. Appended entries are then
propagated to subscribers (engines and storage nodes).

Sealing (§4.5, Delos's protocol): on ``seq.seal`` the primary stops issuing
entries and secondaries commit to rejecting future entries; the ack carries
the replica's length so the controller can determine the final tail.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.core.config import BokiConfig, TermConfig
from repro.core.metalog import Metalog, MetalogEntry, SealedError, TrimCommand, freeze_progress
from repro.core.ordering import merge_progress_by_shard
from repro.sim.kernel import Environment, Interrupt, Process
from repro.sim.network import Network, RpcError, RpcTimeout
from repro.sim.node import Node
from repro.sim.seam import Signal
from repro.sim.sync import Ticker


class _PrimaryState:
    """The primary's volatile ordering state for one (term, log)."""

    def __init__(self, env: Environment, interval: float) -> None:
        self.reports: Dict[str, Dict[str, int]] = {}  # storage node -> vector
        self.pending_trims: List[TrimCommand] = []
        #: A report that says something new, or a trim, arrived since the
        #: driver last looked.
        self.dirty = False
        self.ticker = Ticker(env, interval)

    def touch(self) -> None:
        self.dirty = True
        self.ticker.wake()


class SequencerNode:
    """A simulated sequencer node."""

    #: Methods a layer may intercept with :func:`repro.sim.seam.wrap`.
    WRAP_POINTS = ("_commit_entry",)

    def __init__(self, env: Environment, net: Network, name: str, config: BokiConfig):
        self.env = env
        self.net = net
        self.config = config
        self.node = net.register(Node(env, name, cpu_capacity=8))
        self.term_config: Optional[TermConfig] = None
        #: (term, log) -> local metalog replica
        self.replicas: Dict[Tuple[int, int], Metalog] = {}
        self._primary_state: Dict[Tuple[int, int], _PrimaryState] = {}
        self._drivers: Dict[Tuple[int, int], Process] = {}
        self.entries_appended = 0
        #: Signal (see repro.sim.seam): an entry joined this node's
        #: replica, as primary (commit) or secondary (replicate).
        self.metalog_entry = Signal()    # (name, term, log_id, entry)
        self._register_handlers()

    @property
    def name(self) -> str:
        return self.node.name

    def _register_handlers(self) -> None:
        self.node.handle("seq.report_progress", self._h_report_progress)
        self.node.handle("seq.append_trim", self._h_append_trim)
        self.node.handle("seq.replicate", self._h_replicate)
        self.node.handle("seq.seal", self._h_seal)
        self.node.handle("seq.fetch_entries", self._h_fetch_entries)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def configure(self, term_config: TermConfig) -> None:
        """Create replicas for this term's logs and start primary drivers."""
        self.term_config = term_config
        term = term_config.term_id
        for log_id, asg in term_config.logs.items():
            if self.name not in asg.sequencers:
                continue
            key = (term, log_id)
            self.replicas[key] = Metalog(log_id, term)
            if asg.primary == self.name:
                self._primary_state[key] = _PrimaryState(self.env, self.config.metalog_interval)
                self._drivers[key] = self.node.spawn(
                    self._drive(term_config, log_id), name=f"{self.name}:drive:{log_id}"
                )

    # ------------------------------------------------------------------
    # Primary: ordering
    # ------------------------------------------------------------------
    def _h_report_progress(self, payload: dict) -> None:
        key = (payload["term"], payload["log_id"])
        state = self._primary_state.get(key)
        if state is None:
            return  # not primary for this log (stale message)
        vector = payload["vector"]
        if state.reports.get(payload["storage"]) != vector:  # a repeat is no news
            state.reports[payload["storage"]] = dict(vector)
            state.touch()

    def _h_append_trim(self, payload: dict) -> bool:
        key = (payload["term"], payload["log_id"])
        state = self._primary_state.get(key)
        if state is None:
            raise SealedError(f"not primary for {key}")
        replica = self.replicas.get(key)
        if replica is None or replica.sealed:
            raise SealedError(f"metalog {key} sealed")
        state.pending_trims.append(
            TrimCommand(payload["book_id"], payload["tag"], payload["until_seqnum"])
        )
        state.touch()
        return True

    def _drive(self, term_config: TermConfig, log_id: int) -> Generator:
        """The primary's ordering loop for one metalog: one interval after
        the previous round finished it looks again, if a report or a trim
        arrived meanwhile; otherwise it parks until one does."""
        term = term_config.term_id
        key = (term, log_id)
        asg = term_config.assignment(log_id)
        replica = self.replicas[key]
        state = self._primary_state[key]
        secondaries = [s for s in asg.sequencers if s != self.name]
        try:
            while not replica.sealed:
                yield state.ticker.sleep(until=self.env.now if state.dirty else None)
                if replica.sealed:
                    return
                state.dirty = False
                vector = merge_progress_by_shard(state.reports, asg.shard_storage)
                trims = tuple(state.pending_trims)
                if vector == replica.tail_progress() and not trims:
                    continue
                # Progress must never regress (a late report from a slow
                # replica could otherwise shrink the minimum).
                tail = replica.tail_progress()
                vector = {s: max(c, tail.get(s, 0)) for s, c in vector.items()}
                entry = MetalogEntry(
                    index=len(replica),
                    progress=freeze_progress(vector),
                    start_pos=replica.total_ordered(),
                    trims=trims,
                )
                try:
                    yield from self._commit_entry(term, log_id, replica, entry, secondaries)
                except SealedError:
                    return
                self.metalog_entry(self.name, term, log_id, entry)
                state.pending_trims = state.pending_trims[len(trims):]
                self.entries_appended += 1
                self.net.multicast(
                    self.node, asg.subscribers(), "metalog.entry",
                    {"term": term, "log_id": log_id, "entry": entry},
                )
        except Interrupt:
            return

    def _commit_entry(
        self, term: int, log_id: int, replica: Metalog, entry: MetalogEntry,
        secondaries: List[str],
    ) -> Generator:
        """One quorum round: replicate this exact entry until a quorum
        (counting ourselves) acks it, then append it to our replica.
        Retrying with different content at the same index would diverge
        any secondary that already stored the first attempt. Returns the
        ack count; raises :class:`SealedError` if the metalog is sealed
        first."""
        quorum = self.config.quorum()
        while True:
            acks = 1  # self
            calls = yield self.net.rpc_all(
                self.node, secondaries, "seq.replicate",
                {"term": term, "log_id": log_id, "entry": entry},
                timeout=0.05,
            )
            for call in calls:
                if call.ok:
                    if call.value:
                        acks += 1
                elif not isinstance(call.value, (RpcError, RpcTimeout)):
                    raise call.value
            if acks >= quorum:
                break
            if replica.sealed:
                raise SealedError("sealed before quorum")
            yield self.env.timeout(self.config.metalog_interval)
        replica.append(entry)
        return acks

    # ------------------------------------------------------------------
    # Secondary: replication
    # ------------------------------------------------------------------
    def _h_replicate(self, payload: dict) -> bool:
        key = (payload["term"], payload["log_id"])
        replica = self.replicas.get(key)
        if replica is None:
            raise SealedError(f"no replica for {key} on {self.name}")
        if replica.sealed:
            raise SealedError(f"metalog {key} sealed on {self.name}")
        entry: MetalogEntry = payload["entry"]
        if entry.index < len(replica):
            return True  # duplicate (primary retry)
        if entry.index > len(replica):
            raise SealedError(f"gap in replication at {self.name}")
        replica.append(entry)
        self.metalog_entry(self.name, payload["term"], payload["log_id"], entry)
        return True

    # ------------------------------------------------------------------
    # Sealing & catch-up
    # ------------------------------------------------------------------
    def _h_seal(self, payload: dict) -> int:
        key = (payload["term"], payload["log_id"])
        replica = self.replicas.get(key)
        if replica is None:
            # Seal of a log we never hosted: report empty.
            replica = self.replicas[key] = Metalog(payload["log_id"], payload["term"])
        length = replica.seal()
        driver = self._drivers.get(key)
        if driver is not None and driver.is_alive:
            driver.interrupt("sealed")
        return length

    def _h_fetch_entries(self, payload: dict) -> List[MetalogEntry]:
        key = (payload["term"], payload["log_id"])
        replica = self.replicas.get(key)
        if replica is None:
            return []
        return replica.entries_from(payload["from_index"])
