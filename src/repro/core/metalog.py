"""The metalog: Boki's unified mechanism (§4.1).

Every physical log has one metalog recording its internal state
transitions. Entries carry the *global progress vector* — for each shard,
the count of records known fully replicated — plus any trim commands.
Appending an entry extends the log's total order (ordering); subscribers
compare their applied position against readers' positions (consistency);
sealing the metalog freezes the log for reconfiguration (fault tolerance).

This module holds the pure metalog state machine; replication across
sequencer nodes lives in :mod:`repro.core.sequencer`. An entry's progress
vector is one dict, built in shard order by the primary sequencer and then
shared by every replica and follower that holds the entry: nobody mutates
it, and nobody hashes an entry.

Multi-tenancy: one metalog orders records for *every* tenant sharing its
physical log — isolation is by namespace, not by separate logs (§3). The
log-space prefix layout is defined here (the metalog is the lowest layer
that sees scoped ids, inside trim commands); the scoping functions live
in :mod:`repro.core.index`, and the tenant -> log-space assignment in
:mod:`repro.tenant.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Log-space prefix layout shared by the index and the tenant registry:
#: raw book ids and tags occupy the low 64 bits (wide enough for the
#: support libraries' 61-bit hashed tags); the owning log space is
#: prefixed above them, riding on Python's arbitrary-precision ints.
#: Log space 0 (the reserved default tenant) maps identically, so
#: single-tenant deployments see historical ids.
LOGSPACE_SHIFT = 64
DEFAULT_LOGSPACE = 0
#: The reserved tenant that owns log space 0 — every unlabelled book,
#: tag and invocation belongs to it.
DEFAULT_TENANT = "default"
MAX_RAW_ID = (1 << LOGSPACE_SHIFT) - 1
#: The implicit tag present on every record.
ALL_TAG = 0


class SealedError(Exception):
    """Append attempted on a sealed metalog."""


@dataclass(frozen=True)
class TrimCommand:
    """A trim propagated through the metalog (§4.4). Its one rule, which
    the index and storage both apply through :meth:`held_after`: it takes
    the book's records that carry ``tag`` with seqnum <= ``until_seqnum``
    out of row ``tag`` (every record carries tag 0). A record with explicit
    tags is deleted once none of their rows holds it; any record is deleted
    once tag 0 is trimmed past it. Deleted records leave every index row,
    the engine cache, the storage node and its aux backup.

    Book id and tag arrive already log-space-scoped (the LogBook handle
    scopes them), so a tenant's trim can only ever name its own rows."""

    book_id: int
    tag: int
    until_seqnum: int

    def held_after(self, book_id: int, seqnum: int,
                   tags: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
        """The explicit tags whose rows still hold a record after this trim,
        given ``tags``, those that held it before: ``tags`` itself if the
        trim does not reach the record, None if it deletes the record."""
        if book_id != self.book_id or seqnum > self.until_seqnum:
            return tags
        if self.tag == ALL_TAG:
            return None
        if self.tag not in tags:
            return tags
        return tuple(t for t in tags if t != self.tag) or None


@dataclass(frozen=True)
class MetalogEntry:
    """One metalog entry (Figure 3: "each metalog entry is a vector").

    ``progress`` maps shard name -> record count, in shard order: all
    records of that shard with ``local_id < count`` are ordered once this
    entry is applied. The map is shared, never mutated and never hashed
    (so neither is the entry). ``start_pos`` is the physical-log position
    of the first record in this entry's delta set, so any subscriber can
    compute seqnums locally.
    """

    index: int
    progress: Dict[str, int]
    start_pos: int
    trims: Tuple[TrimCommand, ...] = ()


class Metalog:
    """A single metalog replica's state: an append-only entry list + seal bit,
    with ``tail``, the last entry's progress vector (empty before the
    first), and ``ordered``, the count of physical-log positions assigned."""

    def __init__(self, log_id: int, term_id: int):
        self.log_id = log_id
        self.term_id = term_id
        self.entries: List[MetalogEntry] = []
        self.sealed = False
        self.tail: Dict[str, int] = {}
        self.ordered = 0

    def __len__(self) -> int:
        return len(self.entries)

    def append(self, entry: MetalogEntry) -> None:
        """Append ``entry``; an entry that is refused changes nothing."""
        if self.sealed:
            raise SealedError(f"metalog (log={self.log_id}, term={self.term_id}) is sealed")
        if entry.index != len(self.entries):
            raise ValueError(
                f"entry index {entry.index} does not extend metalog of length {len(self.entries)}"
            )
        tail = self.tail
        delta = 0
        for shard, count in entry.progress.items():
            start = tail.get(shard, 0)
            if count < start:
                raise ValueError(f"progress for shard {shard!r} regressed: {count}")
            delta += count - start
        self.entries.append(entry)
        self.tail = entry.progress
        self.ordered = entry.start_pos + delta

    def seal(self) -> int:
        """Make the metalog unwritable; returns current length (Delos-style
        seal acks carry the replica's tail position)."""
        self.sealed = True
        return len(self.entries)

    def entries_from(self, index: int) -> List[MetalogEntry]:
        return self.entries[index:]
