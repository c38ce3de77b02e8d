"""The LogBook API (Figure 1): the user-facing shared log handle.

Every function invocation is associated with a LogBook. The handle wraps
the function node's LogBook engine, adding the container<->engine IPC hop
(Nightcore's low-latency message channels) and the per-function metalog
position that makes monotonic reads and read-your-writes hold (§3, §4.4).

All methods are generator functions; consume with ``yield from`` inside a
simulation process::

    seqnum = yield from book.append({"op": "push"}, tags=[7])
    record = yield from book.read_next(tag=7, min_seqnum=0)

Multi-tenancy (``repro.tenant``): a handle created for a tenant carries a
``tag_scope`` — explicit tags are namespaced into the tenant's log space
on the way out (append/read/trim) and stripped on returned records, so
user code keeps raw tags while the index sees tenant-private rows. The
book id arrives *already* scoped (the registry scopes it when the handle
or invocation is created). No scope (the default tenant) is the identity
fast path: zero extra work, byte-identical to historical runs.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterable, Optional

from repro.core.engine import LogBookEngine
from repro.core.index import ALL_TAG
from repro.core.types import (
    BAGGAGE_POSITIONS,
    MAX_SEQNUM,
    ZERO_POSITION,
    LogRecord,
    MetalogPosition,
    merge_positions,
)

#: Function container <-> engine message channel, one way (Nightcore's
#: low-latency IPC). Calibrated so a local cache hit lands the paper's
#: 0.12 ms median (Table 3; EXPERIMENTS.md).
IPC_DELAY = 50e-6


class LogBookError(Exception):
    """Base class for LogBook API errors."""



class LogBook:
    """A handle on one LogBook, bound to a position holder.

    When created from a function context, positions live in the context's
    baggage so child invocations inherit them (§4.4); standalone handles
    (microbenchmarks, tests) keep positions in a private dict.
    """

    def __init__(
        self,
        engine: LogBookEngine,
        book_id: int,
        positions: Optional[Dict[int, MetalogPosition]] = None,
        tag_scope=None,
    ):
        self.engine = engine
        self.env = engine.env
        self.book_id = book_id
        self._positions: Dict[int, MetalogPosition] = positions if positions is not None else {}
        #: Tenant tag hook (repro.tenant.TagScope) or None (identity).
        self.tag_scope = tag_scope

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def for_context(cls, engine: LogBookEngine, ctx, tag_scope=None) -> "LogBook":
        """Bind to a function context; positions travel in baggage."""
        positions = ctx.baggage.setdefault(BAGGAGE_POSITIONS, {})
        return cls(engine, ctx.book_id, positions, tag_scope=tag_scope)

    @classmethod
    def standalone(cls, engine: LogBookEngine, book_id: int,
                   tag_scope=None) -> "LogBook":
        return cls(engine, book_id, tag_scope=tag_scope)

    # ------------------------------------------------------------------
    # Tenant tag scoping (identity when tag_scope is None)
    # ------------------------------------------------------------------
    def _scope(self, tag: int) -> int:
        return tag if self.tag_scope is None else self.tag_scope.scope(tag)

    def _unscope_all(self, tags) -> tuple:
        if self.tag_scope is None:
            return tuple(tags)
        return tuple(self.tag_scope.unscope(t) for t in tags)

    # ------------------------------------------------------------------
    # Position bookkeeping
    # ------------------------------------------------------------------
    def _position(self, log_id: int) -> MetalogPosition:
        return self._positions.get(log_id, ZERO_POSITION)

    def _advance(self, log_id: int, position: MetalogPosition) -> None:
        if position > self._position(log_id):
            self._positions[log_id] = position

    def _ipc(self) -> Generator:
        yield self.env.timeout(IPC_DELAY)

    # ------------------------------------------------------------------
    # API (Figure 1)
    # ------------------------------------------------------------------
    def append(self, data: Any, tags: Iterable[int] = ()) -> Generator:
        """logAppend: returns the record's seqnum."""
        tags = tuple(tags)
        if ALL_TAG in tags:
            raise LogBookError("tag 0 is reserved (the implicit all-records tag)")
        tags = tuple(self._scope(t) for t in tags)
        yield from self._ipc()
        seqnum, position = yield from self.engine.append(self.book_id, tags, data)
        self._advance(self.engine.term_config.log_for_book(self.book_id), position)
        yield from self._ipc()
        return seqnum

    def read_next(self, tag: int = ALL_TAG, min_seqnum: int = 0) -> Generator:
        """logReadNext: first record with seqnum >= min_seqnum carrying
        ``tag``, or None."""
        replies = yield from self._read(tag, "next", min_seqnum, MAX_SEQNUM, 1)
        return self._record(replies[0]) if replies else None

    def read_prev(self, tag: int = ALL_TAG, max_seqnum: int = MAX_SEQNUM) -> Generator:
        """logReadPrev: last record with seqnum <= max_seqnum carrying
        ``tag``, or None."""
        replies = yield from self._read(tag, "prev", 0, max_seqnum, 1)
        return self._record(replies[0]) if replies else None

    def check_tail(self, tag: int = ALL_TAG) -> Generator:
        """logCheckTail: alias of logReadPrev(MAX_SEQNUM, tag)."""
        replies = yield from self._read(tag, "prev", 0, MAX_SEQNUM, 1)
        return self._record(replies[0]) if replies else None

    def _read(self, tag: int, direction: str, lo: int, hi: int,
              limit: Optional[int]) -> Generator:
        """One engine read (:meth:`LogBookEngine.read`) between two IPC
        hops; advances the handle's positions and returns the replies."""
        yield from self._ipc()
        replies, updated = yield from self.engine.read(
            self.book_id, self._scope(tag), direction, lo, hi,
            dict(self._positions), limit,
        )
        for log_id, position in updated.items():
            self._advance(log_id, position)
        yield from self._ipc()
        return replies

    def _record(self, reply: dict) -> LogRecord:
        return LogRecord(
            seqnum=reply["seqnum"],
            tags=self._unscope_all(reply["tags"]),
            data=reply["data"],
            auxdata=reply.get("auxdata"),
            book_id=reply["book_id"],
        )

    def trim(self, until_seqnum: int, tag: int = ALL_TAG) -> Generator:
        """logTrim: delete records with seqnum <= until_seqnum (for ``tag``,
        or the whole book when tag is 0)."""
        yield from self._ipc()
        yield from self.engine.trim(self.book_id, self._scope(tag), until_seqnum)
        yield from self._ipc()

    def set_auxdata(self, seqnum: int, auxdata: Any) -> Generator:
        """logSetAuxData: best-effort per-record cache storage (§3)."""
        yield from self._ipc()
        yield from self.engine.set_auxdata(self.book_id, seqnum, auxdata)
        yield from self._ipc()

    def read_range(
        self, tag: int = ALL_TAG, min_seqnum: int = 0, max_seqnum: int = MAX_SEQNUM
    ) -> Generator:
        """Batched range read: every record with the tag in
        [min_seqnum, max_seqnum], in seqnum order, in one engine call.
        Amortizes the IPC and index overheads over the whole range —
        the support libraries use this for log replay."""
        replies = yield from self._read(tag, "next", min_seqnum, max_seqnum, None)
        return [self._record(reply) for reply in replies]

    # ------------------------------------------------------------------
    # Convenience iteration (used by the support libraries)
    # ------------------------------------------------------------------
    def iter_records(
        self, tag: int = ALL_TAG, min_seqnum: int = 0, max_seqnum: int = MAX_SEQNUM
    ) -> Generator:
        """Collect records with the tag in [min_seqnum, max_seqnum], in
        seqnum order (the loop the support-library pseudocode calls
        ``logIterRecords``); served by the batched range read."""
        return (yield from self.read_range(tag, min_seqnum, max_seqnum))
