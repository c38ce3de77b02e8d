"""Delta sets: how metalog entries order records across shards (§4.3).

Comparing a metalog entry's progress vector with its predecessor defines
the *delta set*: for each shard ``j``, records with
``prev[j] <= local_id < cur[j]``. Records within a delta set are ordered by
``(shard, local_id)`` (Figure 3), and occupy consecutive physical-log
positions starting at the entry's ``start_pos``.

Also here, because engines and storage nodes both do it:
:class:`MetalogFollower`, how a node applies one (term, log) metalog in
index order and asks the log's sequencers for entries it is missing. Its
``stalled_since`` means one thing only: since when the drain is blocked.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.core.metalog import MetalogEntry
from repro.sim.network import RpcError, RpcTimeout

#: How long a drain may stay blocked before the node fetches what it lacks.
STALL_FETCH_DELAY = 2e-3
#: How long a node may wait for its records to be ordered with no progress
#: before we suspect the *latest* metalog broadcast was lost (a tail drop
#: leaves no buffered entry behind to reveal the gap) and poll the
#: sequencers directly. Well above normal ordering latency (~1-2 ms).
TAIL_FETCH_DELAY = 10e-3


def delta_set(
    prev_progress: Dict[str, int], entry: MetalogEntry
) -> List[Tuple[str, int, int]]:
    """Expand an entry's delta set.

    Returns ``(shard, local_id, pos)`` triples in total order, where ``pos``
    is the physical-log position assigned by this entry.
    """
    out: List[Tuple[str, int, int]] = []
    pos = entry.start_pos
    for shard, count in entry.progress:  # already sorted by shard
        start = prev_progress.get(shard, 0)
        for local_id in range(start, count):
            out.append((shard, local_id, pos))
            pos += 1
    return out


class MetalogFollower:
    """How a node follows the metalog of one ``(term, log_id)``.

    :meth:`offer` buffers an entry by index (broadcasts arrive out of
    order, twice, or never); :meth:`drain` applies the contiguous run from
    ``applied`` on; :meth:`fetch` asks the log's sequencers for what is
    missing when :meth:`fetch_due` says so. Engines and storage nodes
    differ only in what applying an entry does and in what they wait for.
    Only :meth:`drain` writes ``stalled_since``: the instant the drain
    became blocked (the next entry missing, or refused by the readiness
    check), ``None`` when it is not.
    """

    def __init__(self, term: int, log_id: int) -> None:
        self.term = term
        self.log_id = log_id
        self.applied = 0
        self.prev_progress: Dict[str, int] = {}
        self.buffer: Dict[int, MetalogEntry] = {}
        self.stalled_since: Optional[float] = None
        #: The tail-drop clock: the last advance, wait start or due fetch.
        self.last_advance = 0.0
        #: When a fetch for a blocked drain was last due (its back-off).
        self.fetched_at = 0.0

    def offer(self, entry: MetalogEntry) -> None:
        """Buffer an entry; within a term one index has one entry, so a
        copy of a buffered or an applied one is dropped."""
        if entry.index >= self.applied:
            self.buffer.setdefault(entry.index, entry)

    def drain(self, now: float, apply, ready=None) -> bool:
        """Apply buffered entries in index order, calling ``apply(self,
        entry, delta)`` for each, until the next one is missing or
        ``ready(delta)`` refuses it. Returns whether any entry applied."""
        advanced = False
        while self.applied in self.buffer:
            entry = self.buffer[self.applied]
            delta = delta_set(self.prev_progress, entry)
            if ready is not None and not ready(delta):
                break
            del self.buffer[self.applied]
            apply(self, entry, delta)
            self.prev_progress = entry.progress_dict()
            self.applied += 1
            advanced = True
        if advanced:
            self.last_advance = now
        if not self.buffer:
            self.stalled_since = None
        elif advanced or self.stalled_since is None:
            self.stalled_since = now
        return advanced

    def begin_wait(self, now: float) -> None:
        """The node starts waiting for its records to be ordered: the tail
        clock times that wait, not how long the log was quiet before it."""
        self.last_advance = now

    def fetch_due(self, now: float, waiting: bool) -> Optional[str]:
        """``"gap"`` once the drain has been blocked ``STALL_FETCH_DELAY``,
        ``"tail"`` once the node has been ``waiting`` ``TAIL_FETCH_DELAY``
        with no advance (each again every delay while it lasts), else
        ``None``: whether the node's ticker should fetch now."""
        stalled = (self.stalled_since is not None
                   and now - max(self.stalled_since, self.fetched_at) > STALL_FETCH_DELAY)
        tail_lost = waiting and now - self.last_advance > TAIL_FETCH_DELAY
        if not (stalled or tail_lost):
            return None
        if stalled:
            self.fetched_at = now
        self.last_advance = now
        return "tail" if tail_lost else "gap"

    def next_fetch_at(self, waiting: bool) -> Optional[float]:
        """The instant after which :meth:`fetch_due` can next return a
        verdict, or ``None`` while neither clock runs: when a node's
        ticker should look next."""
        at = None
        if self.stalled_since is not None:
            at = max(self.stalled_since, self.fetched_at) + STALL_FETCH_DELAY
        if waiting:
            tail = self.last_advance + TAIL_FETCH_DELAY
            if at is None or tail < at:
                at = tail
        return at

    def next_delta(self) -> list:
        """The delta set of the next entry if it is buffered (one the
        readiness check refused), else ``[]``."""
        entry = self.buffer.get(self.applied)
        return [] if entry is None else delta_set(self.prev_progress, entry)

    def sequencers(self, term_config) -> List[str]:
        """The sequencers to ask for this metalog, primary first; none
        unless ``term_config`` is this term's and has the log."""
        if (term_config is None or term_config.term_id != self.term
                or self.log_id not in term_config.logs):
            return []
        asg = term_config.assignment(self.log_id)
        return [asg.primary] + [s for s in asg.sequencers if s != asg.primary]

    def fetch(self, net, node, sequencers: List[str]) -> Generator:
        """Buffer the entries from ``applied`` on, as the first of
        ``sequencers`` to answer has them; nothing if none does. The
        caller drains afterwards."""
        from_index = self.applied
        for name in sequencers:
            try:
                entries = yield net.rpc(
                    node, name, "seq.fetch_entries",
                    {"term": self.term, "log_id": self.log_id,
                     "from_index": from_index},
                    timeout=0.05,
                )
            except (RpcError, RpcTimeout):
                continue
            for entry in entries:
                self.offer(entry)
            return


def position_of(
    prev_progress: Dict[str, int], entry: MetalogEntry, shard: str, local_id: int
) -> Optional[int]:
    """Physical-log position of ``(shard, local_id)`` if this entry orders
    it, else None. O(#shards) — no delta expansion."""
    cur = entry.progress_dict()
    if not prev_progress.get(shard, 0) <= local_id < cur.get(shard, 0):
        return None
    pos = entry.start_pos
    for other, count in entry.progress:
        start = prev_progress.get(other, 0)
        if other == shard:
            return pos + (local_id - start)
        pos += count - start
    return None


def merge_progress_by_shard(
    reports: Dict[str, Dict[str, int]], shard_storage: Dict[str, List[str]]
) -> Dict[str, int]:
    """Compute the global progress vector from per-storage-node reports.

    ``reports``: storage node name -> (shard -> contiguous count received).
    ``shard_storage``: shard -> storage node names backing it.

    A shard's fully-replicated prefix is the minimum count over *all* its
    backing storage nodes; a node that has not reported yet contributes 0.
    """
    merged: Dict[str, int] = {}
    for shard, backers in shard_storage.items():
        counts = [reports.get(node, {}).get(shard, 0) for node in backers]
        merged[shard] = min(counts) if counts else 0
    return merged
