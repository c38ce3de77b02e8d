"""Delta sets: how metalog entries order records across shards (§4.3).

Comparing a metalog entry's progress vector with its predecessor defines
the *delta set*: for each shard ``j``, records with
``prev[j] <= local_id < cur[j]``. Records within a delta set are ordered by
``(shard, local_id)`` (Figure 3), and occupy consecutive physical-log
positions starting at the entry's ``start_pos``.

Also here, because engines and storage nodes both need them: how a node
that is missing metalog entries asks the log's sequencers for them.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.core.metalog import MetalogEntry
from repro.sim.network import RpcError, RpcTimeout


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


def _primary_first(assignment) -> List[str]:
    """A log's sequencers in the order to ask them for metalog entries:
    the primary, then the other replicas."""
    return [assignment.primary] + [
        s for s in assignment.sequencers if s != assignment.primary]


def _fetch_entries(net, node, term: int, log_id: int, state,
                   sequencers: List[str]) -> Generator:
    """Buffer the metalog entries of ``(term, log_id)`` from
    ``state.applied`` on into ``state.buffer``, as the first of
    ``sequencers`` to answer has them; nothing if none does. Entries
    already buffered are kept. Engines and storage nodes fill gaps and
    catch up with this, then drain the buffer their own way."""
    from_index = state.applied
    for name in sequencers:
        try:
            entries = yield net.rpc(
                node, name, "seq.fetch_entries",
                {"term": term, "log_id": log_id, "from_index": from_index},
                timeout=0.05,
            )
        except (RpcError, RpcTimeout):
            continue
        for entry in entries:
            state.buffer.setdefault(entry.index, entry)
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
