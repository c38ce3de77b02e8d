"""Core types: sequence numbers, log records, metalog positions.

Seqnum structure (§4.2): every log record has a unique 64-bit seqnum laid
out, from high to low bits, as ``(term_id, log_id, pos)``. Integer order of
seqnums therefore matches the chronological order of terms and the total
order within each physical log. Seqnums within a LogBook are monotonically
increasing but *not* consecutive, because a physical log interleaves many
LogBooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, NamedTuple, Optional, Tuple

TERM_BITS = 16
LOG_BITS = 16
POS_BITS = 32

MAX_TERM = (1 << TERM_BITS) - 1
MAX_LOG = (1 << LOG_BITS) - 1
MAX_POS = (1 << POS_BITS) - 1

#: The largest possible seqnum; logCheckTail reads backward from here.
MAX_SEQNUM = (1 << (TERM_BITS + LOG_BITS + POS_BITS)) - 1


def pack_seqnum(term_id: int, log_id: int, pos: int) -> int:
    """Pack ``(term_id, log_id, pos)`` into a 64-bit seqnum."""
    if not 0 <= term_id <= MAX_TERM:
        raise ValueError(f"term_id {term_id} out of range")
    if not 0 <= log_id <= MAX_LOG:
        raise ValueError(f"log_id {log_id} out of range")
    if not 0 <= pos <= MAX_POS:
        raise ValueError(f"pos {pos} out of range")
    return (term_id << (LOG_BITS + POS_BITS)) | (log_id << POS_BITS) | pos


def seqnum_term(seqnum: int) -> int:
    return seqnum >> (LOG_BITS + POS_BITS)


def seqnum_log_id(seqnum: int) -> int:
    return (seqnum >> POS_BITS) & MAX_LOG


@dataclass
class LogRecord:
    """A record in a LogBook (Figure 1's ``struct LogRecord``).

    ``data`` and ``tags`` are immutable once appended; ``auxdata`` is the
    per-record cache slot with relaxed durability/consistency (§3).
    ``tags`` is a tuple: a caller's tags become one where they enter
    (``LogBook.append``, ``LogBookEngine.append``), and every record is
    built from those.
    Internal placement fields (``shard``, ``local_id``) identify the record
    before the metalog assigns its seqnum.
    """

    seqnum: Optional[int]
    tags: Tuple[int, ...]
    data: Any
    auxdata: Any = None
    book_id: int = 0
    # -- internal placement metadata --
    shard: str = ""
    local_id: int = -1

    def size_bytes(self) -> int:
        """Approximate serialized size, for cache accounting."""
        return _approx_size(self.data) + 16 * len(self.tags) + 32


def _approx_size(value: Any) -> int:
    """Rough byte size of a record payload (strings/bytes exact-ish,
    containers recursive, numbers fixed); exact JSON types skip the
    ``isinstance`` rules, which size them the same. A container sizes its
    scalar members in its own loop and recurses only into the rest."""
    kind = type(value)
    if kind is str or kind is bytes:
        return len(value)
    if kind is int or kind is float or kind is bool:
        return 8
    if value is None:
        return 0
    if isinstance(value, dict):
        members = chain.from_iterable(value.items())
    elif isinstance(value, (list, tuple, set)):
        members = value
    elif isinstance(value, (bytes, bytearray, str)):
        return len(value)
    elif isinstance(value, (int, float, bool)):
        return 8
    else:
        return 64
    size = 8
    for member in members:
        kind = type(member)
        if kind is str or kind is bytes:
            size += len(member)
        elif kind is int or kind is float or kind is bool:
            size += 8
        elif member is not None:
            size += _approx_size(member)
    return size


class MetalogPosition(NamedTuple):
    """A position in a metalog: ``(term_id, entry_index)``.

    Functions send their positions with each call; engines stamp their index
    version with one. Read consistency (§4.4) is "serving index version >=
    reader position", with term compared first (§4.5). A tuple, so that
    comparison is the interpreter's own, with no Python frame.
    """

    term_id: int = 0
    entry_index: int = 0


#: The position before any metalog entry; shared, as positions are immutable.
ZERO_POSITION = MetalogPosition(0, 0)


def merge_positions(into: dict, other: dict) -> None:
    """Raise ``into`` to the per-log maximum of the two position maps, in
    place: a LogBook handle bound to ``into`` keeps seeing every merge."""
    for log_id, pos in other.items():
        if log_id not in into or into[log_id] < pos:
            into[log_id] = pos
