"""Boki deployment configuration.

Two layers, matching §4.2's description of what the control plane stores:

- :class:`BokiConfig` — static tunables: replication factors, batching
  intervals, cache size, storage CPU and aux-data backup.
- :class:`TermConfig` — the per-term assignment installed by the
  controller: which storage nodes back each physical-log shard, which
  sequencers host each metalog (and who is primary), which engines hold
  each log's index, and the consistent-hashing parameters mapping LogBooks
  to physical logs. Reconfiguration (§4.5) replaces the TermConfig and
  bumps ``term_id``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.hashing import ConsistentHashRing


#: Engine CPU per LogBook op. Module-level because the engine and the
#: admission layer's per-engine window both charge it.
ENGINE_SERVICE = 15e-6


@dataclass
class BokiConfig:
    """The paper's ablation surface: what §7 varies between runs.

    Latency values no experiment varies are module constants beside the
    code that charges them (``ENGINE_SERVICE`` here, ``IPC_DELAY`` in
    :mod:`repro.core.logbook`, ``MEDIA_READ_LATENCY`` in
    :mod:`repro.core.storage`), calibrated against the paper's measured
    EC2 numbers (§7 setup: 107 us RTT; Table 3 read latencies); see
    EXPERIMENTS.md.
    """

    ndata: int = 3          # replication factor of physical-log shards
    nmeta: int = 3          # replication factor of metalogs
    cache_bytes: int = 1 << 30  # 1 GiB record cache per engine (paper setup)

    #: Primary sequencer's batching interval for metalog appends (Scalog-
    #: style periodic ordering).
    metalog_interval: float = 0.3e-3
    #: Storage nodes report progress vectors to the primary at this period.
    progress_interval: float = 0.3e-3

    storage_service: float = 80e-6  # storage CPU per replicate/read op
    storage_cpu: int = 8            # vCPUs per storage node

    #: Back up auxiliary data on storage nodes (Table 7's second config).
    aux_backup: bool = False

    def quorum(self) -> int:
        return self.nmeta // 2 + 1


@dataclass
class LogAssignment:
    """Placement of one physical log for one term."""

    log_id: int
    shards: List[str]                       # engine node names owning shards
    shard_storage: Dict[str, List[str]]     # shard -> storage node names
    sequencers: List[str]                   # sequencer node names (nmeta)
    primary: str                            # primary sequencer
    index_engines: List[str]                # engines maintaining the index

    def storage_nodes(self) -> List[str]:
        seen: List[str] = []
        for nodes in self.shard_storage.values():
            for node in nodes:
                if node not in seen:
                    seen.append(node)
        return seen

    def subscribers(self) -> List[str]:
        """Nodes that subscribe to this log's metalog: every shard owner,
        every index engine, and every storage node."""
        out = list(dict.fromkeys(self.shards + self.index_engines + self.storage_nodes()))
        return out


@dataclass
class TermConfig:
    """The full cluster assignment for one term."""

    term_id: int
    logs: Dict[int, LogAssignment]
    ring: ConsistentHashRing

    def log_for_book(self, book_id: int) -> int:
        return self.ring.lookup(book_id)

    def assignment(self, log_id: int) -> LogAssignment:
        return self.logs[log_id]
