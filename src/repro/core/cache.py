"""The LogBook engine's record cache (§4.4).

Engines cache log records keyed by seqnum so best-case reads never leave
the function node. The same cache stores auxiliary data (the prototype
reuses the record cache for aux data, §4.4/§6 — Tkrzw LRU cache DBM in the
C++ implementation). Capacity is accounted in bytes; eviction is LRU.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional, Tuple

from repro.core.types import LogRecord, _approx_size


#: What a seqnum not in the cache stands for: (record, aux, record bytes,
#: aux bytes).
_ABSENT = (None, None, 0, 0)


class RecordCache:
    """Byte-bounded LRU over (record data, aux data) entries."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity_bytes = capacity_bytes
        #: A record is immutable once appended, so it is sized when it is
        #: put, not again each time its aux data is replaced.
        self._entries: "OrderedDict[int, Tuple[Optional[LogRecord], Any, int, int]]" = OrderedDict()
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, seqnum: int) -> bool:
        return seqnum in self._entries

    # ------------------------------------------------------------------
    def put_record(self, record: LogRecord) -> None:
        assert record.seqnum is not None
        _, aux, _, aux_size = self._entries.get(record.seqnum, _ABSENT)
        self._store(record.seqnum, record, aux, record.size_bytes(), aux_size)

    def put_aux(self, seqnum: int, auxdata: Any) -> None:
        record, _, record_size, _ = self._entries.get(seqnum, _ABSENT)
        self._store(seqnum, record, auxdata, record_size, _approx_size(auxdata))

    def _store(self, seqnum: int, record: Optional[LogRecord], aux: Any,
               record_size: int, aux_size: int) -> None:
        """(Re)place the entry at the recently-used end, then evict."""
        self.drop(seqnum)
        self._entries[seqnum] = (record, aux, record_size, aux_size)
        self.used_bytes += record_size + aux_size
        self._evict()

    def _evict(self) -> None:
        while self.used_bytes > self.capacity_bytes and len(self._entries) > 1:
            _, (_, _, record_size, aux_size) = self._entries.popitem(last=False)
            self.used_bytes -= record_size + aux_size
            self.evictions += 1

    # ------------------------------------------------------------------
    def get_record(self, seqnum: int) -> Optional[LogRecord]:
        entry = self._entries.get(seqnum)
        if entry is None or entry[0] is None:
            self.misses += 1
            return None
        self._entries.move_to_end(seqnum)
        self.hits += 1
        return entry[0]

    def get_aux(self, seqnum: int) -> Any:
        entry = self._entries.get(seqnum)
        if entry is None:
            return None
        self._entries.move_to_end(seqnum)
        return entry[1]

    def drop(self, seqnum: int) -> None:
        entry = self._entries.pop(seqnum, None)
        if entry is not None:
            self.used_bytes -= entry[2] + entry[3]
