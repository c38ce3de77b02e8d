"""The log index: locating a LogBook's records inside a physical log (§4.4).

Boki multiplexes many LogBooks onto one physical log, so a read must find
the target LogBook's records without consulting every shard. The index
groups record metadata by ``(book_id, tag)``; each row is an array of
seqnums in increasing order, matching the seek semantics of logReadNext /
logReadPrev (Figure 4). The index is compact — seqnums and shard locators
only — so one machine holds the whole thing.

Tag 0 is the implicit "every record of the book" tag: all records appear in
row ``(book_id, 0)`` in addition to rows for their explicit tags.

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
    DEFAULT_LOGSPACE,
    LOGSPACE_SHIFT,
    MAX_RAW_ID,
    TrimCommand,
)

#: The implicit tag present on every record.
ALL_TAG = 0


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
        #: seqnum -> shard name, for routing reads to storage nodes.
        self._locator: Dict[int, str] = {}
        #: seqnum -> tags, needed to trim rows efficiently.
        self._tags: Dict[int, Tuple[int, ...]] = {}
        self.record_count = 0
        #: Query count (read_next/read_prev/range), surfaced through the
        #: repro.obs metrics registry.
        self.lookups = 0

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
        all_tags = {ALL_TAG} | set(tags)
        for tag in all_tags:
            row = self._rows.setdefault((book_id, tag), [])
            if not row or seqnum > row[-1]:
                row.append(seqnum)
            else:
                position = bisect.bisect_left(row, seqnum)
                if position < len(row) and row[position] == seqnum:
                    continue  # duplicate application
                row.insert(position, seqnum)
        self._locator[seqnum] = shard
        self._tags[seqnum] = tuple(all_tags)
        self.record_count += 1

    def apply_trim(self, trim: TrimCommand) -> List[int]:
        """Execute a trim command; returns the seqnums dropped from the
        index (storage reclaims them in the background)."""
        if trim.tag == ALL_TAG:
            # Trim the whole book: every row of this book.
            keys = [k for k in self._rows if k[0] == trim.book_id]
        else:
            keys = [(trim.book_id, trim.tag)]
        dropped: List[int] = []
        for key in keys:
            row = self._rows.get(key)
            if not row:
                continue
            cut = bisect.bisect_right(row, trim.until_seqnum)
            removed, self._rows[key] = row[:cut], row[cut:]
            if key[1] == ALL_TAG or trim.tag != ALL_TAG:
                dropped.extend(removed)
            if not self._rows[key]:
                del self._rows[key]
        # When trimming a specific tag, records may remain reachable via
        # other tags; only fully-unreachable records are reported dropped.
        result = []
        for seqnum in dropped:
            tags = self._tags.get(seqnum)
            if tags is None:
                continue
            still_reachable = any(
                seqnum in self._row_set(trim.book_id, t)
                for t in tags
                if (trim.book_id, t) in self._rows
            )
            if not still_reachable:
                self._locator.pop(seqnum, None)
                self._tags.pop(seqnum, None)
                self.record_count -= 1
                result.append(seqnum)
        return result

    def _row_set(self, book_id: int, tag: int) -> List[int]:
        return self._rows.get((book_id, tag), [])

    # ------------------------------------------------------------------
    # Queries (the read path, Figure 4)
    # ------------------------------------------------------------------
    def read_next(self, book_id: int, tag: int, min_seqnum: int) -> Optional[int]:
        """First seqnum >= min_seqnum in row (book_id, tag), or None."""
        self.lookups += 1
        row = self._rows.get((book_id, tag))
        if not row:
            return None
        position = bisect.bisect_left(row, min_seqnum)
        return row[position] if position < len(row) else None

    def read_prev(self, book_id: int, tag: int, max_seqnum: int) -> Optional[int]:
        """Last seqnum <= max_seqnum in row (book_id, tag), or None."""
        self.lookups += 1
        row = self._rows.get((book_id, tag))
        if not row:
            return None
        position = bisect.bisect_right(row, max_seqnum)
        return row[position - 1] if position > 0 else None

    def range(
        self, book_id: int, tag: int, min_seqnum: int = 0, max_seqnum: Optional[int] = None
    ) -> List[int]:
        """All seqnums in [min_seqnum, max_seqnum] for the row."""
        self.lookups += 1
        row = self._rows.get((book_id, tag), [])
        lo = bisect.bisect_left(row, min_seqnum)
        hi = len(row) if max_seqnum is None else bisect.bisect_right(row, max_seqnum)
        return row[lo:hi]

    def shard_of(self, seqnum: int) -> Optional[str]:
        return self._locator.get(seqnum)
