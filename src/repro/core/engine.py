"""LogBook engines: the append path, the read path, and consistency (§4.3-4.4).

The LogBook engine is the component Boki adds to Nightcore's per-node
engine process. It:

- owns one shard of each physical log (a local_id counter) and drives the
  append workflow: replicate the record to the shard's storage nodes, then
  wait for the metalog to order it and return the seqnum (Figure 2);
- maintains the log index for the physical logs it indexes, updated by
  subscribing to the metalog, plus an LRU record/aux cache (Figure 4);
- enforces observable consistency: every read carries the reader's metalog
  position, and the engine suspends the read until its index version
  catches up (Figure 5);
- serves reads for remote engines that do not index the target log.

Record *metadata* (book_id, tags) reaches index engines via direct
messages from the appending engine at replication time; an engine stalls
entry application until it holds metadata for every record the entry
orders, fetching from storage nodes if the messages were lost.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.admission.errors import is_overload, retry_after_hint
from repro.core.cache import RecordCache
from repro.core.config import ENGINE_SERVICE, BokiConfig, TermConfig
from repro.core.index import LogIndex
from repro.core.metalog import MetalogEntry
from repro.core.ordering import MetalogFollower
from repro.core.types import (MAX_POS, ZERO_POSITION, LogRecord, MetalogPosition,
                              pack_seqnum, seqnum_term)
from repro.sim.kernel import Environment, Event, Interrupt
from repro.sim.network import Network, RpcError, RpcTimeout
from repro.sim.node import Node
from repro.sim.seam import Signal
from repro.sim.sync import Ticker

MAINTENANCE_INTERVAL = 1e-3

class AppendAborted(Exception):
    """An in-flight append's term was sealed before ordering; retried
    transparently by the engine under the new term."""


class _TermLogState(MetalogFollower):
    """Per-(term, log) append state on top of the metalog subscription."""

    def __init__(self, term: int, log_id: int) -> None:
        super().__init__(term, log_id)
        self.next_local_id = 0
        #: (shard, local_id) -> (book_id, tags) metadata for indexing, of
        #: records not yet ordered (dropped as the metalog orders them)
        self.meta: Dict[Tuple[str, int], Tuple[int, Tuple[int, ...]]] = {}
        #: (shard, local_id) -> Event resolved with seqnum (our appends)
        self.pending: Dict[Tuple[str, int], Event] = {}
        self.sealed = False

    def note_meta(self, shard: str, local_id: int, book_id: int, tags) -> None:
        """Metadata that arrived by message or was fetched from storage. A
        record already ordered (the other of the two got here first) is
        done with: nothing is kept for it."""
        if local_id >= self.prev_progress.get(shard, 0):
            self.meta.setdefault((shard, local_id), (book_id, tuple(tags)))

    def has_meta(self, runs) -> bool:
        """An indexing engine's readiness check: metadata for every record
        of ``runs``."""
        meta = self.meta
        for shard, lo, hi, _ in runs:
            for local_id in range(lo, hi):
                if (shard, local_id) not in meta:
                    return False
        return True


class LogBookEngine:
    """The LogBook engine living on one function node."""

    #: Methods a layer may intercept with :func:`repro.sim.seam.wrap`.
    WRAP_POINTS = ("append", "_replicate", "_read_local", "_read_remote",
                   "_call_replicas")

    def __init__(
        self,
        env: Environment,
        net: Network,
        node: Node,
        config: BokiConfig,
    ):
        self.env = env
        self.net = net
        self.node = node
        self.name = node.name
        self.config = config
        self.term_config: Optional[TermConfig] = None
        #: All terms ever installed, for routing reads of old-term seqnums.
        self.term_history: Dict[int, TermConfig] = {}
        #: book_id -> _book_routes(book_id), valid until the next term.
        self._routes: Dict[int, List[Tuple[int, int, int, int]]] = {}
        self.cache = RecordCache(config.cache_bytes)
        #: log_id -> index (only logs this engine indexes)
        self.indices: Dict[int, LogIndex] = {}
        #: log_id -> applied metalog position (index version)
        self.index_version: Dict[int, MetalogPosition] = {}
        self._states: Dict[Tuple[int, int], _TermLogState] = {}
        #: log_id -> [(required position, event)] suspended reads
        self._read_waiters: Dict[int, List[Tuple[MetalogPosition, Event]]] = {}
        self._storage_rr = 0
        self._remote_rr = 0
        self.appends_started = 0
        self.reads_served = 0
        self.remote_reads = 0
        #: Appends currently in flight on this engine (the queue-depth
        #: gauge the elasticity and admission layers read).
        self.appends_inflight = 0
        self.appends_inflight_peak = 0
        #: Signals (see repro.sim.seam); ``key`` is (term, log_id, local_id).
        self.append_entered = Signal()   # (appends_inflight)
        self.append_started = Signal()   # (shard, key, now) — per attempt
        self.append_ordered = Signal()   # (shard, key, now)
        self.append_aborted = Signal()   # (shard, key)
        self.cache_lookup = Signal()     # (hit)
        node.handle("metalog.entry", self._h_metalog_entry)
        node.handle("index.meta", self._h_index_meta)
        node.handle("engine.read", self._h_engine_read)
        node.handle("engine.dump_index", self._h_engine_dump_index)
        node.handle("engine.append", self._h_engine_append)
        node.handle("log.sealed", self._h_log_sealed)
        #: Succeeded (and replaced) by :meth:`configure`: what an append
        #: that raced a seal waits on.
        self._term_installed = Event(env)
        self._watchdog = Ticker(env, MAINTENANCE_INTERVAL)
        node.spawn(self._maintenance(), name=f"{node.name}:engine-maint")
        node.restart_hooks.append(self._rejoin)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def configure(self, term_config: TermConfig) -> None:
        previous = self.term_config
        self.term_config = term_config
        self.term_history[term_config.term_id] = term_config
        self._routes.clear()
        installed, self._term_installed = self._term_installed, Event(self.env)
        installed.succeed()
        for log_id, asg in term_config.logs.items():
            if self.name in asg.index_engines and log_id not in self.indices:
                self.indices[log_id] = LogIndex(log_id)
                self.index_version.setdefault(log_id, ZERO_POSITION)
                if term_config.term_id > 1:
                    # A newly promoted index engine: earlier terms' records
                    # of this log exist but we never indexed them. Bootstrap
                    # the historical index from a peer that has it.
                    peers = []
                    if previous is not None and log_id in previous.logs:
                        peers = [
                            e for e in previous.assignment(log_id).index_engines
                            if e != self.name
                        ]
                    peers += [e for e in asg.index_engines if e != self.name]
                    self.node.spawn(
                        self._bootstrap_index(log_id, list(dict.fromkeys(peers))),
                        name=f"{self.name}:index-bootstrap:{log_id}",
                    )

    def _bootstrap_index(self, log_id: int, peers: List[str]) -> Generator:
        """Copy a peer's index rows for ``log_id`` (historical terms only —
        the current term's entries arrive via our own subscription)."""
        for peer in peers:
            try:
                dump = yield self.net.rpc(
                    self.node, peer, "engine.dump_index", {"log_id": log_id},
                    timeout=1.0,
                )
            except (RpcError, RpcTimeout):
                continue
            index = self.indices.get(log_id)
            if index is None:
                return
            current_term = self.term_config.term_id if self.term_config else 0
            for book_id, tags, seqnum, shard in dump["records"]:
                if seqnum_term(seqnum) < current_term:
                    index.add_record(book_id, tuple(tags), seqnum, shard)
            return

    def _h_engine_dump_index(self, payload: dict) -> Generator:
        """Serve an index bootstrap: all record metadata for a log, each
        record with the tags whose rows still hold it."""
        yield self.node.cpu.use(ENGINE_SERVICE)
        index = self.indices.get(payload["log_id"])
        if index is None:
            raise KeyError(f"{self.name} does not index log {payload['log_id']}")
        return {"records": [(book_id, tags, seqnum, shard)
                            for seqnum, (book_id, tags, shard) in index._entries.items()]}

    def indexes(self, log_id: int) -> bool:
        return log_id in self.indices

    def _state(self, term: int, log_id: int) -> _TermLogState:
        key = (term, log_id)
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _TermLogState(term, log_id)
        return state

    # ------------------------------------------------------------------
    # Append path (Figure 2, red arrows)
    # ------------------------------------------------------------------
    def append(
        self, book_id: int, tags: Tuple[int, ...], data: Any
    ) -> Generator:
        """Append a record; returns ``(seqnum, position)`` where ``position``
        is the metalog position whose entry ordered the record (the caller's
        new read-your-writes floor). Retries transparently across terms."""
        self.appends_started += 1
        self.appends_inflight += 1
        if self.appends_inflight > self.appends_inflight_peak:
            self.appends_inflight_peak = self.appends_inflight
        for observe in self.append_entered:
            observe(self.appends_inflight)
        try:
            while True:
                term_config = self.term_config
                assert term_config is not None, "engine not configured"
                term = term_config.term_id
                log_id = term_config.log_for_book(book_id)
                asg = term_config.assignment(log_id)
                state = self._state(term, log_id)
                if state.sealed:
                    # Raced a reconfiguration: wait for the new term, retry.
                    yield from self._await_term_change(term)
                    continue
                shard = self.name
                if shard not in asg.shard_storage:
                    raise RuntimeError(f"engine {self.name} owns no shard of log {log_id}")
                local_id = state.next_local_id
                state.next_local_id += 1
                payload = {
                    "term": term,
                    "log_id": log_id,
                    "shard": shard,
                    "local_id": local_id,
                    "book_id": book_id,
                    "tags": tuple(tags),
                    "data": data,
                    "seqnum": None,
                }
                done = Event(self.env)
                if not state.pending:
                    state.begin_wait(self.env.now)
                    self._watchdog.wake(at=state.next_fetch_at(True))
                state.pending[(shard, local_id)] = done
                state.meta[(shard, local_id)] = (book_id, tuple(tags))
                for observe in self.append_started:
                    observe(shard, (term, log_id, local_id), self.env.now)
                yield self.node.cpu.use(ENGINE_SERVICE)
                ok = yield from self._replicate(asg, shard, payload, term_config)
                if not ok:
                    state.pending.pop((shard, local_id), None)
                    for observe in self.append_aborted:
                        observe(shard, (term, log_id, local_id))
                    yield from self._await_term_change(term)
                    continue
                # Ship metadata to the index engines so they can index the
                # record once the metalog orders it.
                meta_msg = {
                    "term": term,
                    "log_id": log_id,
                    "shard": shard,
                    "local_id": local_id,
                    "book_id": book_id,
                    "tags": tuple(tags),
                }
                self.net.multicast(
                    self.node, [e for e in asg.index_engines if e != self.name],
                    "index.meta", meta_msg,
                )
                try:
                    seqnum, position = yield done
                except AppendAborted:
                    continue  # term sealed before ordering: retry in new term
                return seqnum, position
        finally:
            self.appends_inflight -= 1

    def _replicate(self, asg, shard: str, payload: dict, term_config: TermConfig) -> Generator:
        """Replicate to every storage node backing our shard; True when all
        acked, False if the term changed under us (caller retries)."""
        backers = asg.shard_storage[shard]
        attempts = 0
        while True:
            calls = yield self.net.rpc_all(
                self.node, backers, "storage.replicate", payload, timeout=0.05
            )
            failed = False
            shed_hint = None
            for call in calls:
                if call.ok:
                    continue
                exc = call.value
                if not isinstance(exc, (RpcError, RpcTimeout)):
                    raise exc
                failed = True
                # Storage shed the write (bounded window / CoDel):
                # honor its retry-after hint instead of hammering —
                # this is the storage -> engine backpressure rung.
                if is_overload(exc):
                    hint = retry_after_hint(exc)
                    shed_hint = max(shed_hint or 0.0, hint or 0.0)
            if not failed:
                return True
            attempts += 1
            if self.term_config is not term_config:
                return False
            # A storage node is unresponsive; reconfiguration will replace
            # it. Back off and retry (the paper's appends see elevated
            # latency during reconfiguration, Figure 10).
            delay = min(0.001 * attempts, 0.01)
            if shed_hint is not None:
                delay = max(delay, shed_hint)
            yield self.env.timeout(delay)
            if self.term_config is not term_config:
                return False

    def _await_term_change(self, old_term: int) -> Generator:
        while self.term_config is not None and self.term_config.term_id == old_term:
            yield self._term_installed

    # ------------------------------------------------------------------
    # Read path (Figure 4)
    # ------------------------------------------------------------------
    def _book_routes(self, book_id: int) -> List[Tuple[int, int, int, int]]:
        """Every (term, log) placement this book has ever had, in term
        order, with that term's seqnum bounds. A reconfiguration that
        changes the number of physical logs remaps books (§4.5), so a
        book's records can span physical logs across terms. Memoized per
        book until ``configure`` installs the next term."""
        routes = self._routes.get(book_id)
        if routes is None:
            routes = []
            for term_id in sorted(self.term_history):
                log_id = self.term_history[term_id].log_for_book(book_id)
                routes.append((term_id, log_id, pack_seqnum(term_id, log_id, 0),
                               pack_seqnum(term_id, log_id, MAX_POS)))
            self._routes[book_id] = routes
        return routes

    def read(
        self,
        book_id: int,
        tag: int,
        direction: str,
        lo: int,
        hi: int,
        positions: Dict[int, MetalogPosition],
        limit: Optional[int],
    ) -> Generator:
        """Serve a LogBook read: the records carrying ``tag`` with seqnums
        in [lo, hi], nearest ``lo`` first ("next") or nearest ``hi`` first
        ("prev"), at most ``limit`` of them (None: all). The book's
        (term, log) routes are walked in that direction, each clipped to
        its term's seqnums, until ``limit`` records are in hand.
        ``positions`` is the reader's per-log metalog position map.
        Returns ``(record_dicts, updated_positions)``."""
        routes = self._book_routes(book_id)
        reverse = direction == "prev"
        updated: Dict[int, MetalogPosition] = {}
        out: List[dict] = []
        for _term_id, log_id, first, last in reversed(routes) if reverse else routes:
            if last < lo or first > hi:
                continue
            # A log read earlier in this loop is read at least where it left.
            position = updated.get(log_id) or positions.get(log_id, ZERO_POSITION)
            serve = self._read_local if log_id in self.indices else self._read_remote
            records, updated[log_id] = yield from serve(
                log_id, book_id, tag, lo if lo > first else first,
                hi if hi < last else last, reverse, limit, position,
            )
            out += records
            if limit is not None:
                limit -= len(records)  # what the remaining routes may add
                if not limit:
                    break
        return out, updated

    def _read_local(
        self, log_id: int, book_id: int, tag: int, lo: int, hi: int,
        reverse: bool, limit: Optional[int], position: MetalogPosition,
    ) -> Generator:
        """One route of a read on an engine indexing ``log_id``: wait for
        the reader's position, query the index, and serve each record from
        the cache or a storage node. A lone miss is fetched inline, several
        concurrently. Returns ``(record_dicts, new_position)``."""
        yield self.node.cpu.use(ENGINE_SERVICE)
        yield from self._wait_for_version(log_id, position)
        index = self.indices[log_id]
        seqnums = index.query(book_id, tag, lo, hi, limit, reverse)
        new_position = max(position, self.index_version[log_id])
        replies: List[Any] = []
        misses: List[int] = []
        for seqnum in seqnums:
            record = self.cache.get_record(seqnum)
            for observe in self.cache_lookup:
                observe(record is not None)
            if record is None:
                misses.append(len(replies))
                replies.append(seqnum)  # replaced by the fetched reply below
            else:
                replies.append(self._record_reply(record, self.cache.get_aux(seqnum)))
        if len(misses) == 1:
            seqnum = replies[misses[0]]
            reply = yield from self._fetch_from_storage(log_id, seqnum, index)
            replies[misses[0]] = self._cache_fetched(seqnum, reply)
        elif misses:
            fetches = [
                (slot, self.env.process(
                    self._fetch_from_storage(log_id, replies[slot], index),
                    name="range-fetch",
                ))
                for slot in misses
            ]
            for slot, proc in fetches:
                replies[slot] = self._cache_fetched(replies[slot], (yield proc))
        self.reads_served += len(replies)
        return replies, new_position

    def _cache_fetched(self, seqnum: int, reply: dict) -> dict:
        """Cache a record fetched from storage; returns its read reply."""
        record = LogRecord(
            seqnum=reply["seqnum"],
            tags=tuple(reply["tags"]),
            data=reply["data"],
            book_id=reply["book_id"],
            shard=reply["shard"],
            local_id=reply["local_id"],
        )
        self.cache.put_record(record)
        aux = self.cache.get_aux(seqnum)
        if aux is None and reply.get("auxdata") is not None:
            aux = reply["auxdata"]  # aux backup from storage (Table 7)
            self.cache.put_aux(seqnum, aux)
        return self._record_reply(record, aux)

    @staticmethod
    def _record_reply(record: LogRecord, aux: Any) -> dict:
        return {
            "seqnum": record.seqnum,
            "tags": record.tags,
            "data": record.data,
            "auxdata": aux,
            "book_id": record.book_id,
        }

    def _fetch_from_storage(self, log_id: int, seqnum: int, index: LogIndex) -> Generator:
        shard = index.shard_of(seqnum)
        term = seqnum_term(seqnum)

        def backers() -> List[str]:
            # Re-resolved per try so a retried read follows a
            # reconfiguration to the current placement.
            term_config = self.term_history.get(term) or self.term_config
            return term_config.assignment(log_id).shard_storage.get(shard) or []

        replicas = backers()
        if not replicas:
            raise KeyError(f"no storage known for seqnum {seqnum:#x}")
        start = self._storage_rr
        self._storage_rr += 1
        return (
            yield from self._call_replicas(
                lambda: (backers(), {"seqnum": seqnum}), "storage.read",
                start, timeout=0.05, tries=len(replicas),
            )
        )

    def _call_replicas(
        self, request, method: str, start: int, timeout: float, tries: int,
    ) -> Generator:
        """Call ``method`` on one of a set of replicas: replica ``start``
        first, then ``start + 1``, ... once each, up to ``tries`` tries;
        raises the last transport error when all fail. ``request()`` returns
        ``(replica names, payload)`` and is evaluated per try, so a retry
        sees the current term's placement."""
        last_error: Optional[BaseException] = None
        for attempt in range(tries):
            names, payload = request()
            try:
                return (
                    yield self.net.rpc(
                        self.node, names[(start + attempt) % len(names)],
                        method, payload, timeout=timeout,
                    )
                )
            except (RpcError, RpcTimeout) as exc:
                last_error = exc
        raise last_error  # all replicas failed

    def _wait_for_version(self, log_id: int, position: MetalogPosition) -> Generator:
        """Observable consistency (Figure 5): suspend until our index has
        applied at least the reader's metalog position."""
        current = self.index_version.get(log_id, ZERO_POSITION)
        if current >= position:
            return
        event = Event(self.env)
        self._read_waiters.setdefault(log_id, []).append((position, event))
        yield event

    def _wake_readers(self, log_id: int) -> None:
        waiters = self._read_waiters.get(log_id)
        if not waiters:
            return
        current = self.index_version[log_id]
        remaining = []
        for position, event in waiters:
            if current >= position:
                if not event.triggered:
                    event.succeed()
            else:
                remaining.append((position, event))
        self._read_waiters[log_id] = remaining

    # ------------------------------------------------------------------
    # Remote reads
    # ------------------------------------------------------------------
    def _index_engines_for(self, log_id: int) -> List[str]:
        """Index engines for a log, looking back through term history for
        logs that only existed in earlier terms."""
        for term_id in sorted(self.term_history, reverse=True):
            term_config = self.term_history[term_id]
            if log_id in term_config.logs:
                engines = term_config.assignment(log_id).index_engines
                if engines:
                    return engines
        raise RuntimeError(f"log {log_id} has no index engines in any term")

    def _ask_index_engine(self, log_id: int, method: str, payload: dict) -> Generator:
        """Send a read to the next index engine of ``log_id`` in rotation."""
        start = self._remote_rr
        self._remote_rr += 1
        return self._call_replicas(
            lambda: (self._index_engines_for(log_id), payload), method,
            start, timeout=10.0, tries=1,
        )

    def _read_remote(
        self, log_id: int, book_id: int, tag: int, lo: int, hi: int,
        reverse: bool, limit: Optional[int], position: MetalogPosition,
    ) -> Generator:
        """One route of a read on an engine not indexing ``log_id``: the
        same query, served by one of the log's index engines."""
        reply = yield from self._ask_index_engine(log_id, "engine.read", {
            "log_id": log_id, "book_id": book_id, "tag": tag, "lo": lo,
            "hi": hi, "reverse": reverse, "limit": limit, "position": position,
        })
        return reply["records"], reply["position"]

    def _h_engine_append(self, payload: dict) -> Generator:
        """Append forwarded from another node (used by placement variants
        such as fixed sharding, where a LogBook is pinned to one shard)."""
        seqnum, position = yield from self.append(
            payload["book_id"], tuple(payload["tags"]), payload["data"]
        )
        return {"seqnum": seqnum, "position": position}

    def _h_engine_read(self, payload: dict) -> Generator:
        self.remote_reads += 1
        records, position = yield from self._read_local(
            payload["log_id"], payload["book_id"], payload["tag"], payload["lo"],
            payload["hi"], payload["reverse"], payload["limit"], payload["position"],
        )
        return {"records": records, "position": position}

    # ------------------------------------------------------------------
    # Auxiliary data (§4.4) and trims
    # ------------------------------------------------------------------
    def set_auxdata(self, book_id: int, seqnum: int, auxdata: Any) -> Generator:
        yield self.node.cpu.use(ENGINE_SERVICE)
        self.cache.put_aux(seqnum, auxdata)
        if self.config.aux_backup:
            term_config = self.term_history.get(seqnum_term(seqnum)) or self.term_config
            log_id = term_config.log_for_book(book_id)
            index = self.indices.get(log_id)
            shard = index.shard_of(seqnum) if index else None
            asg = term_config.assignment(log_id)
            backers = asg.shard_storage.get(shard, []) if shard else []
            for name in backers:
                self.net.send(self.node, name, "storage.put_aux", {"seqnum": seqnum, "auxdata": auxdata})

    def trim(self, book_id: int, tag: int, until_seqnum: int) -> Generator:
        """Append a trim command to the metalog (§4.4).

        Primary and payload are resolved per try from the *current* term,
        so a retried trim converges on the new term's primary instead of
        failing on a sealed one. Trims are idempotent (same
        ``until_seqnum``), so ambiguous timeouts are safe to retry.
        """
        def request():
            term_config = self.term_config
            log_id = term_config.log_for_book(book_id)
            return [term_config.assignment(log_id).primary], {
                "term": term_config.term_id,
                "log_id": log_id,
                "book_id": book_id,
                "tag": tag,
                "until_seqnum": until_seqnum,
            }

        yield from self._call_replicas(
            request, "seq.append_trim", 0, timeout=1.0, tries=1,
        )

    # ------------------------------------------------------------------
    # Metalog subscription: ordering resolution + index updates
    # ------------------------------------------------------------------
    def _h_metalog_entry(self, payload: dict) -> None:
        state = self._state(payload["term"], payload["log_id"])
        state.offer(payload["entry"])
        self._drain(state)

    def _h_index_meta(self, payload: dict) -> None:
        state = self._state(payload["term"], payload["log_id"])
        state.note_meta(payload["shard"], payload["local_id"], payload["book_id"], payload["tags"])
        if state.applied in state.buffer:
            # Metadata can unblock only a buffered entry the readiness
            # check refused; with none, a drain would change nothing.
            self._drain(state)

    def _drain(self, state: _TermLogState) -> None:
        """Apply what the subscription can; an indexing engine stalls an
        entry until it holds the metadata of every record it orders."""
        log_id = state.log_id
        now = self.env.now
        ready = state.has_meta if self.indexes(log_id) else None
        advanced = state.drain(now, self._apply_entry, ready)
        if state.stalled_since == now:
            # Blocked just now: the watchdog looks when a fetch can be due.
            self._watchdog.wake(at=state.next_fetch_at(False))
        elif advanced and not any(map(self._watched, self._states.values())):
            self._watchdog.rest()  # nothing left to watch
        if advanced:
            candidate = MetalogPosition(state.term, state.applied)
            if candidate > self.index_version.get(log_id, ZERO_POSITION):
                self.index_version[log_id] = candidate
            self._wake_readers(log_id)

    def _apply_entry(self, state: _TermLogState, entry: MetalogEntry, runs) -> None:
        term, log_id = state.term, state.log_id
        index = self.indices.get(log_id)
        meta, pending = state.meta, state.pending
        base = pack_seqnum(term, log_id, 0)
        position = None  # shared by every append this entry resolves
        for shard, lo, hi, pos in runs:
            ours = shard == self.name  # only our own shard has pending appends
            for local_id in range(lo, hi):
                key = (shard, local_id)
                seqnum = base + pos + local_id - lo
                record_meta = meta.pop(key, None)
                if index is not None and record_meta is not None:
                    index.add_record(record_meta[0], record_meta[1], seqnum, shard)
                done = pending.pop(key, None) if ours else None
                if done is not None and not done.triggered:
                    if position is None:
                        position = MetalogPosition(term, entry.index + 1)
                    done.succeed((seqnum, position))
                    for observe in self.append_ordered:
                        observe(shard, (term, log_id, local_id), self.env.now)
        # After a num_logs change a book's older records sit in another log.
        for trim in entry.trims:
            for log_index in self.indices.values():
                for seqnum in log_index.apply_trim(trim):
                    self.cache.drop(seqnum)

    # ------------------------------------------------------------------
    # Sealing: finish the old term, abort unordered appends
    # ------------------------------------------------------------------
    def _h_log_sealed(self, payload: dict) -> Generator:
        term, log_id, final_len = payload["term"], payload["log_id"], payload["final_len"]
        state = self._state(term, log_id)
        state.sealed = True
        if state.applied < final_len:
            yield from state.fetch(self.net, self.node, payload.get("sequencers", []))
            yield from self._drain_with_meta_fetch(state)
        # Anything still unordered in this term never will be: abort so the
        # append path retries in the new term. (If we failed to fetch the
        # final entries this may retry a record the sealed term did order —
        # an at-least-once corner the support libraries' first-record-wins
        # protocols tolerate.)
        for key, event in list(state.pending.items()):
            if not event.triggered:
                event.fail(AppendAborted(f"term {term} sealed"))
            state.pending.pop(key, None)
            for observe in self.append_aborted:
                observe(key[0], (term, log_id, key[1]))
        # The sealed term contributes a final index version so readers
        # waiting on old-term positions are released.
        self._wake_readers(log_id)

    def _recover(self, state: _TermLogState, due: str) -> Generator:
        """Un-stall a subscription: ask the term's sequencers for entries on
        a tail poll (even with an empty buffer) or a gap in the buffer (lost
        ``metalog.entry`` broadcasts), then fetch any missing record
        metadata from storage."""
        if due == "tail" or (state.buffer and state.applied not in state.buffer):
            sequencers = state.sequencers(self.term_history.get(state.term))
            yield from state.fetch(self.net, self.node, sequencers)
        yield from self._drain_with_meta_fetch(state)

    def _drain_with_meta_fetch(self, state: _TermLogState) -> Generator:
        """Drain, fetching any missing record metadata from storage."""
        self._drain(state)
        for _ in range(100):
            meta = state.meta
            # In run order (by shard), the same under every hash seed.
            missing_shards = [
                shard for shard, lo, hi, _ in state.next_delta()
                if any((shard, local_id) not in meta for local_id in range(lo, hi))
            ]
            if not missing_shards:
                break
            yield from self._fetch_meta(state, missing_shards)
            self._drain(state)

    def _fetch_meta(self, state: _TermLogState, shards) -> Generator:
        term, log_id = state.term, state.log_id
        term_config = self.term_history.get(term) or self.term_config
        asg = term_config.assignment(log_id)
        for shard in shards:
            for name in asg.shard_storage.get(shard, []):
                try:
                    metas = yield self.net.rpc(
                        self.node, name, "storage.fetch_meta",
                        {"term": term, "log_id": log_id, "shard": shard, "from_local_id": 0},
                        timeout=0.05,
                    )
                except (RpcError, RpcTimeout):
                    continue
                for local_id, meta in metas.items():
                    state.note_meta(shard, local_id, meta[0], meta[1])
                break

    # ------------------------------------------------------------------
    # Maintenance: un-stall subscriptions, poll for a lost tail
    # ------------------------------------------------------------------
    @staticmethod
    def _watched(state: _TermLogState) -> bool:
        return bool(state.pending) or state.stalled_since is not None

    def _rejoin(self, node: Node) -> None:
        """Restart hook: the watchdog died with the crash; its first round
        after the restart looks at once, since subscriptions may have
        stalled while the node was down."""
        node.spawn(self._maintenance(self.env.now), name=f"{node.name}:engine-maint")

    def _maintenance(self, until: Optional[float] = None) -> Generator:
        """The watchdog sleeps until the earliest instant a subscription's
        follower can next call for a fetch (its drain blocked, or appends
        waiting to be ordered), and fetches when the follower says so;
        with none to watch it parks until :meth:`append` or :meth:`_drain`
        arms it, and :meth:`_drain` drops its deadline once all is clear."""
        try:
            while True:
                yield self._watchdog.sleep(until)
                until = None
                now = self.env.now
                for state in list(self._states.values()):
                    if not self._watched(state):
                        continue
                    waiting = bool(state.pending) and not state.sealed
                    due = state.fetch_due(now, waiting)
                    if due:
                        self.node.spawn(self._recover(state, due), name=f"{self.name}:meta-fetch")
                    at = state.next_fetch_at(waiting)
                    if at is not None:
                        until = at if until is None else min(until, at)
        except Interrupt:
            return
