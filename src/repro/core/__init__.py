"""Boki core: shared logs with the metalog mechanism.

This package implements the paper's primary contribution (§3–§4):

- :mod:`repro.core.types` — seqnums ``(term_id, log_id, pos)``, log records,
  tags, and the metalog position type used for consistency checks.
- :mod:`repro.core.metalog` — the metalog: entries carrying global progress
  vectors and trim commands, with primary-driven quorum replication.
- :mod:`repro.core.sequencer` — sequencer nodes hosting metalog replicas;
  the primary computes global progress vectors from storage reports and
  appends metalog entries (Scalog-style ordering, §4.3).
- :mod:`repro.core.storage` — storage nodes: shard replica stores, progress
  reporting, reads by seqnum, background trim reclamation.
- :mod:`repro.core.ordering` — delta sets: how metalog entries assign
  seqnums across shards (Figure 3).
- :mod:`repro.core.index` — the log index: ``(book_id, tag)`` rows of
  sorted seqnums, updated from the metalog (§4.4, Figure 4).
- :mod:`repro.core.cache` — the engine's LRU record/aux-data cache.
- :mod:`repro.core.engine` — LogBook engines: the append and read paths,
  observable-consistency checks (Figure 5).
- :mod:`repro.core.logbook` — the user-facing LogBook API (Figure 1).
- :mod:`repro.core.hashing` — consistent hashing (Dynamo strategy 3)
  mapping LogBooks onto physical logs.
- :mod:`repro.core.controller` — the control plane: failure detection and
  the sealing-based reconfiguration protocol (§4.5).
- :mod:`repro.core.cluster` — assembles a full Boki deployment.
"""

from repro.core.cluster import BokiCluster
from repro.core.config import BokiConfig
from repro.core.logbook import LogBook, LogBookError
from repro.core.types import (
    MAX_SEQNUM,
    LogRecord,
    MetalogPosition,
    pack_seqnum,
    seqnum_log_id,
    seqnum_term,
)

__all__ = [
    "BokiCluster",
    "BokiConfig",
    "LogBook",
    "LogBookError",
    "LogRecord",
    "MAX_SEQNUM",
    "MetalogPosition",
    "pack_seqnum",
    "seqnum_log_id",
    "seqnum_term",
]
