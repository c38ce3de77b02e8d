"""Fixed sharding: the placement policy Boki's log index replaces (§7.5).

Previous systems (e.g. vCorfu) map each stream to a fixed shard so a
single storage group holds all of its records — making reads easy but
turning the shard into the stream's write bottleneck. Table 8 compares:
under a uniform LogBook distribution both policies perform alike, but
under a Zipf-skewed distribution fixed sharding collapses onto the hot
book's shard while Boki (any record on any shard + log index) is
unaffected.

This module implements the fixed policy on top of unmodified Boki: a
frontend routes every append for a book to the engine owning
``hash(book_id)``'s shard, instead of the appender's local shard.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.cluster import BokiCluster
from repro.core.engine import LogBookEngine
from repro.core.hashing import stable_hash
from repro.core.logbook import LogBook
from repro.sim.network import RpcError


class FixedShardingLogBook(LogBook):
    """A LogBook whose appends are pinned to one engine by book hash."""

    def __init__(self, cluster: BokiCluster, engine: LogBookEngine, book_id: int):
        super().__init__(engine, book_id)
        self.cluster = cluster
        engine_names = sorted(cluster.engines)
        self.home_engine = engine_names[
            stable_hash(book_id, salt="fixed-shard") % len(engine_names)
        ]

    def _engine_append(self, tags: tuple, data: Any) -> Generator:
        if self.home_engine == self.engine.name:
            return (yield from super()._engine_append(tags, data))
        # Remote append: forward to the book's home engine.
        try:
            reply = yield self.cluster.net.rpc(
                self.engine.node,
                self.home_engine,
                "engine.append",
                {"book_id": self.book_id, "tags": tags, "data": data},
                timeout=30.0,
            )
        except RpcError as exc:
            raise exc.cause from None
        return reply["seqnum"], reply["position"]


def fixed_sharding_logbook(cluster: BokiCluster, book_id: int, engine=None) -> FixedShardingLogBook:
    if engine is None:
        engine = cluster.any_engine()
    return FixedShardingLogBook(cluster, engine, book_id)
