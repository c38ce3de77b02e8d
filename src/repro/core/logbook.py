"""The LogBook API (Figure 1): the user-facing shared log handle.

Every function invocation is associated with a LogBook. The handle wraps
the function node's LogBook engine, adding the container<->engine IPC hop
(Nightcore's low-latency message channels) and the per-function metalog
position that makes monotonic reads and read-your-writes hold (§3, §4.4).

All methods are generator functions; consume with ``yield from`` inside a
simulation process::

    seqnum = yield from book.append({"op": "push"}, tags=[7])
    record = yield from book.read_next(tag=7, min_seqnum=0)

Multi-tenancy (``repro.tenant``): the book id arrives *already* scoped
(the registry scopes it when the handle or invocation is created), and
its high bits name the tenant's log space. A handle namespaces explicit
tags into that log space on the way out (append/read/trim) and strips it
from returned records, so user code keeps raw tags while the index sees
tenant-private rows. Log space 0 (the default tenant) is the identity
fast path: zero extra work, byte-identical to historical runs.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterable, Optional

from repro.core.engine import LogBookEngine
from repro.core.index import ALL_TAG, logspace_of, scope_tag, unscope_tag
from repro.core.types import MAX_SEQNUM, ZERO_POSITION, LogRecord, MetalogPosition

#: Function container <-> engine message channel, one way (Nightcore's
#: low-latency IPC). Calibrated so a local cache hit lands the paper's
#: 0.12 ms median (Table 3; EXPERIMENTS.md).
IPC_DELAY = 50e-6


class LogBookError(Exception):
    """Base class for LogBook API errors."""



class LogBook:
    """A handle on one LogBook, bound to a position holder.

    When created from a function context, positions are the context's own
    map, which its child invocations are sent a copy of (§4.4); a handle
    made without one (microbenchmarks, tests) keeps positions in a
    private dict.
    """

    def __init__(
        self,
        engine: LogBookEngine,
        book_id: int,
        positions: Optional[Dict[int, MetalogPosition]] = None,
    ):
        self.engine = engine
        self.env = engine.env
        self.book_id = book_id
        self._positions: Dict[int, MetalogPosition] = positions if positions is not None else {}
        #: The tenant log space of the (scoped) book id; 0 is the default.
        self.logspace = 0 if book_id is None else logspace_of(book_id)

    @classmethod
    def for_context(cls, engine: LogBookEngine, ctx) -> "LogBook":
        """Bind to a function context and its positions map."""
        return cls(engine, ctx.book_id, ctx.positions)

    # ------------------------------------------------------------------
    # Tenant tag scoping (identity in the default log space)
    # ------------------------------------------------------------------
    def _scope(self, tag: int) -> int:
        return scope_tag(self.logspace, tag) if self.logspace else tag

    def _unscoped(self, record: LogRecord) -> LogRecord:
        """The record with its tags out of this (non-default) log space."""
        return LogRecord(
            record.seqnum, tuple(unscope_tag(self.logspace, t) for t in record.tags),
            record.data, record.auxdata, record.book_id,
        )

    # ------------------------------------------------------------------
    # Position bookkeeping
    # ------------------------------------------------------------------
    def _advance(self, log_id: int, position: MetalogPosition) -> None:
        if position > self._positions.get(log_id, ZERO_POSITION):
            self._positions[log_id] = position

    # ------------------------------------------------------------------
    # API (Figure 1)
    # ------------------------------------------------------------------
    def append(self, data: Any, tags: Iterable[int] = ()) -> Generator:
        """logAppend: returns the record's seqnum."""
        tags = tuple(tags)
        if ALL_TAG in tags:
            raise LogBookError("tag 0 is reserved (the implicit all-records tag)")
        tags = tuple(self._scope(t) for t in tags)
        yield self.env.timeout(IPC_DELAY)
        seqnum, position = yield from self._engine_append(tags, data)
        self._advance(self.engine.term_config.log_for_book(self.book_id), position)
        yield self.env.timeout(IPC_DELAY)
        return seqnum

    def _engine_append(self, tags: tuple, data: Any) -> Generator:
        """The engine hop of an append, yielding ``(seqnum, position)``:
        the local engine's (placement variants route it elsewhere)."""
        return self.engine.append(self.book_id, tags, data)

    def read_next(self, tag: int = ALL_TAG, min_seqnum: int = 0) -> Generator:
        """logReadNext: first record with seqnum >= min_seqnum carrying
        ``tag``, or None."""
        records = yield from self._read(tag, "next", min_seqnum, MAX_SEQNUM, 1)
        return records[0] if records else None

    def read_prev(self, tag: int = ALL_TAG, max_seqnum: int = MAX_SEQNUM) -> Generator:
        """logReadPrev: last record with seqnum <= max_seqnum carrying
        ``tag``, or None."""
        records = yield from self._read(tag, "prev", 0, max_seqnum, 1)
        return records[0] if records else None

    def check_tail(self, tag: int = ALL_TAG) -> Generator:
        """logCheckTail: alias of logReadPrev(MAX_SEQNUM, tag)."""
        records = yield from self._read(tag, "prev", 0, MAX_SEQNUM, 1)
        return records[0] if records else None

    def _read(self, tag: int, direction: str, lo: int, hi: int,
              limit: Optional[int]) -> Generator:
        """One engine read (:meth:`LogBookEngine.read`) between two IPC
        hops; advances the handle's positions and returns the engine's
        records, their tags unscoped in a tenant log space."""
        yield self.env.timeout(IPC_DELAY)
        records, updated = yield from self.engine.read(
            self.book_id, self._scope(tag), direction, lo, hi,
            dict(self._positions), limit,
        )
        for log_id, position in updated.items():
            self._advance(log_id, position)
        yield self.env.timeout(IPC_DELAY)
        return [self._unscoped(r) for r in records] if self.logspace else records

    def trim(self, until_seqnum: int, tag: int = ALL_TAG) -> Generator:
        """logTrim: take the records carrying ``tag`` with seqnum <=
        until_seqnum out of its row. A record goes once no row of its own
        tags holds it, and every record once tag 0 is trimmed past it
        (the rule on :class:`~repro.core.metalog.TrimCommand`)."""
        yield self.env.timeout(IPC_DELAY)
        yield from self.engine.trim(self.book_id, self._scope(tag), until_seqnum)
        yield self.env.timeout(IPC_DELAY)

    def set_auxdata(self, seqnum: int, auxdata: Any) -> Generator:
        """logSetAuxData: best-effort per-record cache storage (§3)."""
        yield self.env.timeout(IPC_DELAY)
        yield from self.engine.set_auxdata(self.book_id, seqnum, auxdata)
        yield self.env.timeout(IPC_DELAY)

    def read_range(
        self, tag: int = ALL_TAG, min_seqnum: int = 0, max_seqnum: int = MAX_SEQNUM
    ) -> Generator:
        """Batched range read: every record with the tag in
        [min_seqnum, max_seqnum], in seqnum order, in one engine call.
        Amortizes the IPC and index overheads over the whole range —
        the support libraries use this for log replay (the loop their
        pseudocode calls ``logIterRecords``)."""
        return (yield from self._read(tag, "next", min_seqnum, max_seqnum, None))
