"""The log index: locating a LogBook's records inside a physical log (§4.4).

Boki multiplexes many LogBooks onto one physical log, so a read must find
the target LogBook's records without consulting every shard. The index
groups record metadata by ``(book_id, tag)``; each row is an array of
seqnums in increasing order, and every read is one seek in a row
(:meth:`LogIndex.query`): logReadNext / logReadPrev take the nearest
seqnum in one direction (Figure 4), a range read every seqnum between two
bounds. The index is compact — seqnums, and each record's book, tags and
shard — so one machine holds the whole thing.

Tag 0 is the implicit "every record of the book" tag: all records appear in
row ``(book_id, 0)`` in addition to rows for their explicit tags. Trims
follow the rule stated on :class:`~repro.core.metalog.TrimCommand`.

Log spaces (``repro.tenant``): Boki's multi-tenant design carves one
isolated shared-log namespace per tenant out of the common metalog (§3).
We model a namespace as a *log space* — a small integer prefixed into the
high bits of every book id and explicit tag before they reach the index,
so two tenants using the same raw book/tag land in disjoint ``(book_id,
tag)`` rows and one tenant's records are structurally invisible to the
other's lookups. Log space 0 is the reserved default tenant and maps
identically (scoped value == raw value), which is what keeps
tenancy-off runs byte-identical to historical seeds.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.metalog import (
    ALL_TAG,
    DEFAULT_LOGSPACE,
    LOGSPACE_SHIFT,
    MAX_RAW_ID,
    TrimCommand,
)


def scope_book(logspace: int, book_id: int) -> int:
    """Namespace a raw book id into ``logspace``. Identity for the
    default log space (0), so unconfigured runs see historical ids."""
    if logspace == DEFAULT_LOGSPACE:
        return book_id
    if not 0 <= book_id <= MAX_RAW_ID:
        raise ValueError(f"book id {book_id} outside the raw 64-bit space")
    return (logspace << LOGSPACE_SHIFT) | book_id


def scope_tag(logspace: int, tag: int) -> int:
    """Namespace a raw explicit tag into ``logspace``.

    :data:`ALL_TAG` (0) is never prefixed: it is the *implicit* row and,
    because book ids are themselves namespaced, the all-records row of a
    scoped book is already tenant-private.
    """
    if logspace == DEFAULT_LOGSPACE or tag == ALL_TAG:
        return tag
    if not 0 <= tag <= MAX_RAW_ID:
        raise ValueError(f"tag {tag} outside the raw 64-bit space")
    return (logspace << LOGSPACE_SHIFT) | tag


def unscope_tag(logspace: int, tag: int) -> int:
    """Strip the log-space prefix from a scoped tag (identity for the
    default log space and for :data:`ALL_TAG`)."""
    if logspace == DEFAULT_LOGSPACE or tag == ALL_TAG:
        return tag
    return tag & MAX_RAW_ID


def logspace_of(scoped_id: int) -> int:
    """The log space a scoped book id or tag belongs to (0 = default)."""
    return scoped_id >> LOGSPACE_SHIFT


class LogIndex:
    """Index of one physical log, maintained by a LogBook engine."""

    def __init__(self, log_id: int):
        self.log_id = log_id
        self._rows: Dict[Tuple[int, int], List[int]] = {}
        #: seqnum -> (book_id, explicit tags whose rows hold it, shard):
        #: the shard routes reads to storage nodes, the tags drive trims.
        self._entries: Dict[int, Tuple[int, Tuple[int, ...], str]] = {}
        #: Query count, surfaced through the repro.obs metrics registry.
        self.lookups = 0

    @property
    def record_count(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Updates (driven by metalog application)
    # ------------------------------------------------------------------
    def add_record(
        self, book_id: int, tags: Iterable[int], seqnum: int, shard: str
    ) -> None:
        """Insert one ordered record's metadata.

        Records arrive in seqnum order during normal metalog application,
        so appends to rows are O(1); out-of-order insertion (catch-up after
        index bootstrap) falls back to bisect insertion.
        """
        tags = tuple(tags)
        for tag in {ALL_TAG, *tags}:
            row = self._rows.setdefault((book_id, tag), [])
            if not row or seqnum > row[-1]:
                row.append(seqnum)
            else:
                position = bisect.bisect_left(row, seqnum)
                if position < len(row) and row[position] == seqnum:
                    continue  # duplicate application
                row.insert(position, seqnum)
        self._entries[seqnum] = (book_id, tags, shard)

    def apply_trim(self, trim: TrimCommand) -> List[int]:
        """Take the records ``trim`` reaches out of row ``(book_id, tag)``
        and delete from every row those :meth:`TrimCommand.held_after`
        says go; returns the deleted seqnums (storage reclaims them in the
        background)."""
        row = self._rows.get((trim.book_id, trim.tag))
        if not row:
            return []
        taken = row[:bisect.bisect_right(row, trim.until_seqnum)]
        # tag -> the seqnums that leave row (book_id, tag)
        leaving = {trim.tag: set(taken)}
        dropped: List[int] = []
        for seqnum in taken:
            book_id, tags, shard = self._entries[seqnum]
            held = trim.held_after(book_id, seqnum, tags)
            if held is None:
                del self._entries[seqnum]
                dropped.append(seqnum)
                for tag in (ALL_TAG, *tags):
                    leaving.setdefault(tag, set()).add(seqnum)
            else:
                self._entries[seqnum] = (book_id, held, shard)
        for tag, gone in leaving.items():
            key = (trim.book_id, tag)
            kept = [seqnum for seqnum in self._rows.pop(key) if seqnum not in gone]
            if kept:
                self._rows[key] = kept
        return dropped

    # ------------------------------------------------------------------
    # Queries (the read path, Figure 4)
    # ------------------------------------------------------------------
    def query(self, book_id: int, tag: int, lo: int, hi: int,
              limit: Optional[int], reverse: bool) -> List[int]:
        """The seqnums of row (book_id, tag) within [lo, hi], nearest ``lo``
        first, or nearest ``hi`` first when ``reverse``; at most ``limit``
        of them (None: all). logReadNext is the first one from ``lo``,
        logReadPrev the first one back from ``hi``."""
        self.lookups += 1
        row = self._rows.get((book_id, tag))
        if not row:
            return []
        start = bisect.bisect_left(row, lo)
        end = bisect.bisect_right(row, hi, start)
        if limit is not None and end - start > limit:
            if reverse:
                start = end - limit
            else:
                end = start + limit
        found = row[start:end]
        if reverse:
            found.reverse()
        return found

    def shard_of(self, seqnum: int) -> Optional[str]:
        entry = self._entries.get(seqnum)
        return entry[2] if entry else None
