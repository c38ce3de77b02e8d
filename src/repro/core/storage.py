"""Storage nodes: durable record stores for physical-log shards (§4.2-4.3).

Each physical-log shard is replicated on ``ndata`` storage nodes. Storage
nodes:

- accept ``storage.replicate`` writes from the shard-owning engine and
  track, per shard, the contiguous prefix of local_ids received;
- report a log's progress vector to the primary sequencer when it
  changes while they hold records the metalog has not ordered, at the
  next ``progress_interval`` grid instant, and again only if it is still
  unordered ``STALL_FETCH_DELAY`` later (step 2 of the append workflow,
  Figure 2; the metalog is the acknowledgement);
- subscribe to the metalog and, once records are ordered, index them by
  seqnum to serve ``storage.read``, fetching lost entries as engines do;
- reclaim trimmed records in the background, by the one rule stated on
  :class:`~repro.core.metalog.TrimCommand` that the index applies too;
- optionally store auxiliary-data backups (Table 7's second configuration).

Record payloads are plain dicts. The backers of a shard hold the same
immutable payload object the engine replicated (a real network would give
each its own copy of the same bytes): nothing writes a stored record, and a
read reply is a fresh dict carrying the seqnum the reader asked for.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.core.config import BokiConfig, TermConfig
from repro.core.metalog import MetalogEntry, TrimCommand
from repro.core.ordering import STALL_FETCH_DELAY, MetalogFollower
from repro.core.types import pack_seqnum, seqnum_log_id, seqnum_term
from repro.sim.kernel import Environment, Interrupt
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.seam import Signal
from repro.sim.sync import Ticker

#: A RocksDB point read on NVMe: every storage read pays it after its
#: CPU service time.
MEDIA_READ_LATENCY = 200e-6


class _ShardStore:
    """Records of one (term, log, shard) this node backs."""

    def __init__(self) -> None:
        self.records: Dict[int, dict] = {}  # local_id -> record payload
        self.contiguous = 0  # local_ids [0, contiguous) all present

    def put(self, local_id: int, payload: dict) -> None:
        self.records[local_id] = payload
        while self.contiguous in self.records:
            self.contiguous += 1


class StorageNode:
    """A simulated storage node."""

    #: Methods a layer may intercept with :func:`repro.sim.seam.wrap`.
    WRAP_POINTS = ("_h_replicate", "_media_read")

    def __init__(self, env: Environment, net: Network, name: str, config: BokiConfig):
        self.env = env
        self.net = net
        self.config = config
        self.node = net.register(Node(env, name, cpu_capacity=config.storage_cpu))
        self.name = name
        self.term_config: Optional[TermConfig] = None
        #: (term, log, shard) -> shard store
        self._shards: Dict[Tuple[int, int, str], _ShardStore] = {}
        #: (term, log) -> metalog subscription
        self._logs: Dict[Tuple[int, int], MetalogFollower] = {}
        #: seqnum -> record payload (ordered records, the read path)
        self._by_seqnum: Dict[int, dict] = {}
        #: seqnum -> auxiliary data backup
        self._aux_backup: Dict[int, Any] = {}
        #: seqnum -> the explicit tags whose rows still hold it, for the
        #: records a trim has reached but not deleted.
        self._held: Dict[int, Tuple[int, ...]] = {}
        self.trimmed_count = 0
        self.records_ordered = 0
        self._progress_proc = None
        self._progress_ticker = Ticker(env, config.progress_interval)
        #: What the running progress loop reports on: (log_id, [(shard,
        #: store)], primary, follower) per log this node backs.
        self._reporting: List[Tuple[int, List[Tuple[str, _ShardStore]], str, MetalogFollower]] = []
        #: The running progress loop's last report per log_id, ``(vector,
        #: when)``, kept while the log has unordered records (a wait).
        self._sent: Dict[int, Tuple[Dict[str, int], float]] = {}
        #: Replicate writes currently queued or in service (the
        #: pending-write gauge the admission layer reads).
        self.pending_writes = 0
        self.pending_writes_peak = 0
        #: Signals (see repro.sim.seam).
        self.write_entered = Signal()    # (pending_writes)
        self.record_applied = Signal()   # (name, incarnation, term, log_id, shard, pos)
        self._register_handlers()
        self.node.restart_hooks.append(self._rejoin)

    def _register_handlers(self) -> None:
        self.node.handle("storage.replicate", self._h_replicate)
        self.node.handle("storage.read", self._h_read)
        self.node.handle("storage.put_aux", self._h_put_aux)
        self.node.handle("storage.fetch_meta", self._h_fetch_meta)
        self.node.handle("metalog.entry", self._h_metalog_entry)
        self.node.handle("log.sealed", self._h_log_sealed)

    # ------------------------------------------------------------------
    # Configuration / term changes
    # ------------------------------------------------------------------
    def configure(self, term_config: TermConfig) -> None:
        """Install a new term's assignment and (re)start progress reporting."""
        self.term_config = term_config
        if self._progress_proc is not None and self._progress_proc.is_alive:
            self._progress_proc.interrupt("reconfigured")
        if self._backed_logs():
            self._progress_proc = self.node.spawn(
                self._progress_loop(term_config), name=f"{self.name}:progress"
            )

    def _rejoin(self, node: Node) -> None:
        """Restart hook: records survive a crash (durable disk), so a
        restarted node re-installs the term it last had and reports
        again."""
        if self.term_config is not None:
            self.configure(self.term_config)

    def _backed_logs(self) -> List[Tuple[int, List[str]]]:
        """Logs (and their shards) this node backs under the current term."""
        assert self.term_config is not None
        out = []
        for log_id, asg in self.term_config.logs.items():
            shards = [s for s, nodes in asg.shard_storage.items() if self.name in nodes]
            if shards:
                out.append((log_id, shards))
        return out

    def _progress_loop(self, term_config: TermConfig) -> Generator:
        """Report a log's vector to its primary when it differs from the
        one we last sent and we hold records of it that no metalog entry we
        have applied orders yet. The metalog is the acknowledgement: a
        vector still unordered ``STALL_FETCH_DELAY`` after we sent it (the
        report or the entry ordering it was lost) is sent again, and one
        the metalog already covers is never sent. The same rounds fetch
        lost entries when the log's follower says so. Between rounds the
        loop sleeps until the earliest re-send or fetch deadline; with
        nothing unordered and the drain not blocked it parks, and
        :meth:`_h_replicate` or :meth:`_h_metalog_entry` wakes it."""
        term = term_config.term_id
        self._reporting = backed = [
            (log_id, [(shard, self._shard(term, log_id, shard)) for shard in shards],
             term_config.assignment(log_id).primary, self._log_state(term, log_id))
            for log_id, shards in self._backed_logs()
        ]
        self._sent = sent = {}
        # The first round always looks: a node re-configured after a crash
        # may hold unordered records from before it.
        until = self.env.now
        try:
            while self.term_config is term_config:
                yield self._progress_ticker.sleep(until)
                until = None
                now = self.env.now
                for log_id, stores, primary, state in backed:
                    vector = {shard: store.contiguous for shard, store in stores}
                    ordered = state.prev_progress
                    unordered = any(count > ordered.get(shard, 0)
                                    for shard, count in vector.items())
                    if unordered:
                        last = sent.get(log_id)
                        if last is None:
                            state.begin_wait(now)
                        if (last is None or last[0] != vector
                                or now - last[1] > STALL_FETCH_DELAY):
                            self.net.send(
                                self.node,
                                primary,
                                "seq.report_progress",
                                {"term": term, "log_id": log_id, "storage": self.name,
                                 "vector": vector},
                            )
                            last = sent[log_id] = (vector, now)
                    else:
                        sent.pop(log_id, None)
                        if state.stalled_since is None:
                            continue
                    if state.fetch_due(now, unordered):
                        self.node.spawn(self._catch_up(state), name=f"{self.name}:catch-up")
                    at = state.next_fetch_at(unordered)  # waiting or blocked: a clock runs
                    if unordered:
                        at = min(at, last[1] + STALL_FETCH_DELAY)
                    until = at if until is None else min(until, at)
        except Interrupt:
            return

    def _all_ordered(self) -> bool:
        """Whether the progress loop has nothing to look at: every record
        of a log we back is ordered, and no such log's drain is blocked."""
        for _, stores, _, state in self._reporting:
            if state.stalled_since is not None:
                return False
            ordered = state.prev_progress
            if any(store.contiguous > ordered.get(shard, 0) for shard, store in stores):
                return False
        return True

    def _shard(self, term: int, log_id: int, shard: str) -> _ShardStore:
        key = (term, log_id, shard)
        store = self._shards.get(key)
        if store is None:
            store = self._shards[key] = _ShardStore()
        return store

    def _log_state(self, term: int, log_id: int) -> MetalogFollower:
        key = (term, log_id)
        state = self._logs.get(key)
        if state is None:
            state = self._logs[key] = MetalogFollower(term, log_id)
        return state

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _h_replicate(self, payload: dict) -> Generator:
        """Store one record; ack once durable."""
        self.pending_writes += 1
        if self.pending_writes > self.pending_writes_peak:
            self.pending_writes_peak = self.pending_writes
        for observe in self.write_entered:
            observe(self.pending_writes)
        try:
            yield self.node.cpu.use(self.config.storage_service)
            store = self._shard(payload["term"], payload["log_id"], payload["shard"])
            store.put(payload["local_id"], payload)
            self._progress_ticker.wake()
        finally:
            self.pending_writes -= 1
        return True

    def _h_put_aux(self, payload: dict) -> None:
        if self.config.aux_backup:
            self._aux_backup[payload["seqnum"]] = payload["auxdata"]

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _h_read(self, payload: dict) -> Generator:
        yield self.node.cpu.use(self.config.storage_service)
        yield from self._media_read()
        record = self._by_seqnum.get(payload["seqnum"])
        if record is None:
            # The reader's engine saw this seqnum ordered, so the metalog
            # entry assigning it exists — we just haven't applied it (the
            # broadcast was lost or is still in flight). Catch up from the
            # sequencers inline and retry the lookup.
            seqnum = payload["seqnum"]
            yield from self._catch_up(self._log_state(seqnum_term(seqnum), seqnum_log_id(seqnum)))
            record = self._by_seqnum.get(payload["seqnum"])
        if record is None:
            raise KeyError(f"seqnum {payload['seqnum']:#x} not on {self.name}")
        reply = dict(record)
        reply["seqnum"] = payload["seqnum"]
        if self.config.aux_backup:
            reply["auxdata"] = self._aux_backup.get(payload["seqnum"])
        return reply

    def _media_read(self) -> Generator:
        yield self.env.timeout(MEDIA_READ_LATENCY)

    def _h_fetch_meta(self, payload: dict) -> Generator:
        """Catch-up path for index engines missing record metadata: return
        (local_id -> (book_id, tags)) for a shard range we back."""
        yield self.node.cpu.use(self.config.storage_service)
        store = self._shard(payload["term"], payload["log_id"], payload["shard"])
        out = {}
        for local_id in range(payload["from_local_id"], store.contiguous):
            record = store.records.get(local_id)
            if record is not None:
                out[local_id] = (record["book_id"], record["tags"])
        return out

    # ------------------------------------------------------------------
    # Metalog subscription: assign seqnums, apply trims
    # ------------------------------------------------------------------
    def _h_metalog_entry(self, payload: dict) -> None:
        state = self._log_state(payload["term"], payload["log_id"])
        state.offer(payload["entry"])
        self._drain(state)

    def _drain(self, state: MetalogFollower) -> None:
        """Apply what the follower can. A drain blocked just now has the
        progress loop look when a fetch can first be due; once everything
        is ordered, the loop's deadline is dropped."""
        now = self.env.now
        advanced = state.drain(now, self._apply_entry)
        if state.stalled_since == now:
            self._progress_ticker.wake(at=state.next_fetch_at(False))
        elif advanced and state.stalled_since is None and self._all_ordered():
            # No round will find it so: the next unordered record starts
            # a new wait.
            self._sent.clear()
            self._progress_ticker.rest()

    def _catch_up(self, state: MetalogFollower,
                  sequencers: Optional[List[str]] = None) -> Generator:
        """Fetch the entries we have not applied yet from ``sequencers``
        (default: the current term's, none for an older term); apply them."""
        if sequencers is None:
            sequencers = state.sequencers(self.term_config)
        yield from state.fetch(self.net, self.node, sequencers)
        self._drain(state)

    def _apply_entry(self, state: MetalogFollower, entry: MetalogEntry, runs) -> None:
        term, log_id = state.term, state.log_id
        base = pack_seqnum(term, log_id, 0)
        for shard, lo, hi, pos in runs:
            store = self._shards.get((term, log_id, shard))
            if store is None:
                continue  # we do not back this shard
            records = store.records
            for local_id in range(lo, hi):
                record = records.get(local_id)
                if record is not None:
                    at = pos + local_id - lo
                    self._by_seqnum[base + at] = record
                    self.records_ordered += 1
                    for observe in self.record_applied:
                        observe(self.name, self.node.crash_count, term, log_id, shard, at)
        for trim in entry.trims:
            self._reclaim(trim)

    def _reclaim(self, trim: TrimCommand) -> None:
        """Background space reclamation for trimmed records (§4.4). We model
        it as immediate deletion; the latency-insensitive path."""
        for seqnum, record in list(self._by_seqnum.items()):
            tags = self._held.get(seqnum, record["tags"])
            after = trim.held_after(record["book_id"], seqnum, tags)
            if after is None:
                del self._by_seqnum[seqnum]
                self._held.pop(seqnum, None)
                self._aux_backup.pop(seqnum, None)
                store = self._shards[record["term"], record["log_id"], record["shard"]]
                store.records.pop(record["local_id"], None)
                self.trimmed_count += 1
            elif after is not tags:
                self._held[seqnum] = after

    # ------------------------------------------------------------------
    # Sealing
    # ------------------------------------------------------------------
    def _h_log_sealed(self, payload: dict) -> Generator:
        """The controller announces the final metalog length for a sealed
        (term, log); fetch any entries we are missing and finish applying."""
        term, log_id, final_len = payload["term"], payload["log_id"], payload["final_len"]
        state = self._log_state(term, log_id)
        if state.applied < final_len and self.term_config is not None:
            yield from self._catch_up(state, payload.get("sequencers", []))
