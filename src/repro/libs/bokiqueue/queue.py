"""BokiQueue implementation: log-backed FIFO shards.

Each shard is a replicated state machine whose commands are ``push`` and
``pop`` records in the shard's tag stream. Replaying the stream in seqnum
order yields the deterministic matching: every pop takes the oldest pending
push at its log position (or nothing, if the shard is empty there). Every
replayed record's aux slot caches the shard state *after* that record, so a
pop normally replays only the records since the previous cached state.
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, List, Optional, Tuple

from repro.core.hashing import log_tag
from repro.core.logbook import LogBook
from repro.sim.seam import Signal

def shard_tag(queue_name: str, shard: int) -> int:
    return log_tag("bokiqueue", ("queue", queue_name, shard))


class _ShardState:
    """Queue-shard state at a log position."""

    def __init__(self, pending: Optional[List[Tuple[int, Any]]] = None):
        #: (push seqnum, value) of pushes not yet taken, oldest first.
        self.pending: List[Tuple[int, Any]] = list(pending or [])

    def apply(self, record) -> Optional[Any]:
        """Apply one record; for pops, returns the taken value (or None)."""
        data = record.data
        if data["kind"] == "push":
            self.pending.append((record.seqnum, data["value"]))
            return None
        if data["kind"] == "pop":
            if self.pending:
                _, value = self.pending.pop(0)
                return value
            return None
        raise ValueError(f"unknown queue record kind {data['kind']!r}")

    def to_aux(self, pop_result: Any = None, is_pop: bool = False) -> dict:
        aux = {"pending": [[s, v] for s, v in self.pending]}
        if is_pop:
            aux["result"] = pop_result
        return aux

    @classmethod
    def from_aux(cls, aux: dict) -> "_ShardState":
        return cls([(s, v) for s, v in aux["pending"]])


class BokiQueue:
    """A named queue on one LogBook, divided into CSMR shards."""

    def __init__(self, book: LogBook, name: str, num_shards: int = 1):
        if num_shards <= 0:
            raise ValueError("need at least one shard")
        self.book = book
        self.name = name
        self.num_shards = num_shards
        #: Signals (see repro.sim.seam): push/pop completions, e.g. for
        #: the online no-loss / no-duplicate delivery monitor.
        self.push_attempted = Signal()   # (queue, shard, value)
        self.push_acked = Signal()       # (queue, shard, value, seqnum)
        self.push_failed = Signal()      # (queue, shard, value)
        self.popped = Signal()           # (queue, shard, value or None)

    def producer(self, max_backlog: Optional[int] = None) -> "QueueProducer":
        return QueueProducer(self, max_backlog=max_backlog)

    def consumer(self, shard: int) -> "QueueConsumer":
        """Each shard is consumed by a single consumer (CSMR); callers are
        responsible for the 1:1 shard-consumer mapping."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} out of range")
        return QueueConsumer(self, shard)

    # ------------------------------------------------------------------
    # Shard replay (shared by consumers and the GC function)
    # ------------------------------------------------------------------
    def replay_shard(
        self,
        shard: int,
        upto_seqnum: int,
        hint: Optional[Tuple[int, "_ShardState"]] = None,
    ) -> Generator:
        """Re-construct shard state as of ``upto_seqnum`` (inclusive);
        returns ``(state, result_of_record_at_upto)``.

        ``hint`` is an in-memory local view ``(replayed_upto, state)`` kept
        by a live consumer (Tango-style); without one — the ephemeral
        cold-start case — the whole tag range is fetched in one batched
        read and replay resumes from the latest record with a cached state
        in its aux data (§5.4). Pop records' aux is filled with the shard
        state so future cold starts resume from them."""
        tag = shard_tag(self.name, shard)
        target_result = None
        if hint is not None and hint[0] <= upto_seqnum:
            state = _ShardState(list(hint[1].pending))
            records = yield from self.book.read_range(
                tag=tag, min_seqnum=hint[0] + 1, max_seqnum=upto_seqnum
            )
        else:
            records = yield from self.book.read_range(
                tag=tag, min_seqnum=0, max_seqnum=upto_seqnum
            )
            # Resume from the latest aux-cached state, if any.
            state = _ShardState()
            resume_at = -1
            for i in range(len(records) - 1, -1, -1):
                aux = records[i].auxdata
                if isinstance(aux, dict) and "pending" in aux:
                    state = _ShardState.from_aux(aux)
                    resume_at = i
                    break
            if resume_at >= 0:
                if records[resume_at].seqnum == upto_seqnum:
                    return state, records[resume_at].auxdata.get("result")
                records = records[resume_at + 1:]
        for record in records:
            result = state.apply(record)
            is_pop = record.data["kind"] == "pop"
            # Cache shard state on pop records (bounded aux traffic: one
            # per pop, enough for cold-start resume).
            if is_pop and record.auxdata is None:
                yield from self.book.set_auxdata(
                    record.seqnum, state.to_aux(result, is_pop)
                )
            if record.seqnum == upto_seqnum:
                target_result = result
        return state, target_result


class QueueProducer:
    """Pushes messages, spreading over shards round-robin (§5.3).

    With ``max_backlog`` set, the producer applies flow control: it
    periodically replays shard state (cheap — local view + aux caches) and
    stalls while consumers are too far behind. This coordination through
    the shared log is exactly what an opaque service API like SQS cannot
    offer (§7.4's producer-heavy results)."""

    BACKLOG_CHECK_EVERY = 4
    BACKLOG_POLL = 2e-3
    #: The client operation (repro.sim.seam): a chaos history records it.
    WRAP_POINTS = ("push",)

    def __init__(self, queue: BokiQueue, max_backlog: Optional[int] = None):
        self.queue = queue
        self.max_backlog = max_backlog
        self._rr = itertools.count()
        self._views: dict = {}  # shard -> (seqnum, state) local view

    def push(self, value: Any) -> Generator:
        count = next(self._rr)
        shard = count % self.queue.num_shards
        if self.max_backlog is not None and count % self.BACKLOG_CHECK_EVERY == 0:
            yield from self._wait_for_room(shard)
        self.queue.push_attempted(self.queue.name, shard, value)
        try:
            seqnum = yield from self.queue.book.append(
                {"kind": "push", "value": value},
                tags=[shard_tag(self.queue.name, shard)],
            )
        except BaseException:
            self.queue.push_failed(self.queue.name, shard, value)
            raise
        self.queue.push_acked(self.queue.name, shard, value, seqnum)
        return seqnum

    def _wait_for_room(self, shard: int) -> Generator:
        while True:
            tail = yield from self.queue.book.check_tail(
                tag=shard_tag(self.queue.name, shard)
            )
            if tail is None:
                return
            state, _ = yield from self.queue.replay_shard(
                shard, tail.seqnum, hint=self._views.get(shard)
            )
            self._views[shard] = (tail.seqnum, state)
            if len(state.pending) < self.max_backlog:
                return
            yield self.queue.book.env.timeout(self.BACKLOG_POLL)


class QueueConsumer:
    """Pops messages from one shard.

    A live consumer keeps an in-memory local view of its shard's state
    (Tango-style); the view is merely an accelerator — a fresh consumer
    (new function invocation) rebuilds it from the log and the aux-cached
    states, so correctness never depends on it."""

    #: The client operation (repro.sim.seam): a chaos history records it.
    WRAP_POINTS = ("pop",)

    def __init__(self, queue: BokiQueue, shard: int):
        self.queue = queue
        self.shard = shard
        self._local_view: Optional[Tuple[int, _ShardState]] = None

    def pop(self) -> Generator:
        """Append a pop record and replay to learn its outcome. Returns the
        value, or None if the shard was empty at the pop's position."""
        seqnum = yield from self.queue.book.append(
            {"kind": "pop", "consumer": self.shard},
            tags=[shard_tag(self.queue.name, self.shard)],
        )
        state, result = yield from self.queue.replay_shard(
            self.shard, seqnum, hint=self._local_view
        )
        self._local_view = (seqnum, state)
        self.queue.popped(self.queue.name, self.shard, result)
        return result

    def pop_wait(self, poll_interval: float = 0.002, max_polls: int = 500) -> Generator:
        """Blocking pop: peek cheaply (no pop record) until a message looks
        available, then pop. Returns None after ``max_polls`` empty polls."""
        env = self.queue.book.env
        for _ in range(max_polls):
            value = yield from self.pop_nonempty_hint()
            if value is not None:
                return value
            yield env.timeout(poll_interval)
        return None

    def pop_nonempty_hint(self) -> Generator:
        """Pop only if replaying the current tail shows pending messages —
        avoids burning log records on obviously empty polls."""
        tail = yield from self.queue.book.check_tail(
            tag=shard_tag(self.queue.name, self.shard)
        )
        if tail is None:
            return None
        state, _ = yield from self.queue.replay_shard(
            self.shard, tail.seqnum, hint=self._local_view
        )
        self._local_view = (tail.seqnum, state)
        if not state.pending:
            return None
        return (yield from self.pop())
