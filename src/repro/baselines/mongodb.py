"""Simulated MongoDB: the document store BokiStore is compared with (§7.3).

Models the behaviours the Retwis comparison exercises:

- JSON documents in named collections, primary reads/writes (sub-ms);
- a 3-replica set: writes pay majority acknowledgement;
- multi-document transactions with snapshot reads and write-conflict
  aborts, costing per-statement overhead plus a commit round — which is
  why the paper's MongoDB transactions run at ~7.5 ms while BokiStore's
  log-based ones run at 3-5 ms (Figure 12b).
"""

from __future__ import annotations

import copy
import itertools
from typing import Any, Dict, Generator, List, Tuple

from repro.baselines.latency import (
    MONGODB_CONCURRENCY,
    MONGODB_READ,
    MONGODB_TXN_COMMIT,
    MONGODB_TXN_STMT,
    MONGODB_WRITE,
)
from repro.libs.bokistore.jsonpath import apply_ops
from repro.baselines.service import ServiceClient, SimulatedService
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.randvar import RandomStreams


class WriteConflictError(Exception):
    """A transactional write conflicted with a concurrent committed write."""


class MongoDBService(SimulatedService):
    """The simulated replica-set primary."""

    def __init__(self, env: Environment, net: Network, streams: RandomStreams, name: str = "mongodb"):
        super().__init__(env, net, streams, name, MONGODB_CONCURRENCY)
        self.collections: Dict[str, Dict[Any, dict]] = {}
        #: doc (collection, key) -> version, for txn write-conflict checks.
        self._versions: Dict[Tuple[str, Any], int] = {}
        self._txn_ids = itertools.count(1)
        #: open txn id -> {"reads": {(coll,key): version}, "writes": {...}}
        self._txns: Dict[int, dict] = {}
        for method, handler in {
            "mongo.find": self._h_find,
            "mongo.upsert": self._h_upsert,
            "mongo.update": self._h_update,
            "mongo.delete": self._h_delete,
            "mongo.txn_begin": self._h_txn_begin,
            "mongo.txn_find": self._h_txn_find,
            "mongo.txn_update": self._h_txn_update,
            "mongo.txn_commit": self._h_txn_commit,
        }.items():
            self.node.handle(method, handler)

    def collection(self, name: str) -> Dict[Any, dict]:
        return self.collections.setdefault(name, {})

    def _bump(self, coll: str, key: Any) -> None:
        self._versions[(coll, key)] = self._versions.get((coll, key), 0) + 1

    # -- plain operations ------------------------------------------------
    def _h_find(self, payload: dict) -> Generator:
        yield from self._service(MONGODB_READ)
        doc = self.collection(payload["collection"]).get(payload["key"])
        return copy.deepcopy(doc) if doc is not None else None

    def _h_upsert(self, payload: dict) -> Generator:
        yield from self._service(MONGODB_WRITE)
        self.collection(payload["collection"])[payload["key"]] = copy.deepcopy(payload["doc"])
        self._bump(payload["collection"], payload["key"])
        return True

    def _h_update(self, payload: dict) -> Generator:
        """Apply json-path ops to a document (upsert semantics)."""
        yield from self._service(MONGODB_WRITE)
        coll = self.collection(payload["collection"])
        doc = coll.get(payload["key"])
        coll[payload["key"]] = apply_ops(doc, payload["ops"])
        self._bump(payload["collection"], payload["key"])
        return True

    def _h_delete(self, payload: dict) -> Generator:
        yield from self._service(MONGODB_WRITE)
        self.collection(payload["collection"]).pop(payload["key"], None)
        self._bump(payload["collection"], payload["key"])
        return True

    # -- transactions ------------------------------------------------------
    def _h_txn_begin(self, payload: dict) -> Generator:
        yield from self._service(MONGODB_TXN_STMT)
        txn_id = next(self._txn_ids)
        self._txns[txn_id] = {"reads": {}, "writes": {}}
        return txn_id

    def _h_txn_find(self, payload: dict) -> Generator:
        yield from self._service(MONGODB_TXN_STMT)
        txn = self._txns[payload["txn_id"]]
        coll, key = payload["collection"], payload["key"]
        if (coll, key) in txn["writes"]:
            return copy.deepcopy(txn["writes"][(coll, key)])
        doc = self.collection(coll).get(key)
        txn["reads"][(coll, key)] = self._versions.get((coll, key), 0)
        return copy.deepcopy(doc) if doc is not None else None

    def _h_txn_update(self, payload: dict) -> Generator:
        yield from self._service(MONGODB_TXN_STMT)
        txn = self._txns[payload["txn_id"]]
        coll, key = payload["collection"], payload["key"]
        base = txn["writes"].get((coll, key))
        if base is None:
            base = self.collection(coll).get(key)
            txn["reads"].setdefault((coll, key), self._versions.get((coll, key), 0))
        txn["writes"][(coll, key)] = apply_ops(base, payload["ops"])
        return True

    def _h_txn_commit(self, payload: dict) -> Generator:
        yield from self._service(MONGODB_TXN_COMMIT)
        txn = self._txns.pop(payload["txn_id"], None)
        if txn is None:
            raise KeyError(payload["txn_id"])
        # Write-conflict check: any written doc changed since first touch?
        for (coll, key) in txn["writes"]:
            seen = txn["reads"].get((coll, key), 0)
            if self._versions.get((coll, key), 0) != seen:
                raise WriteConflictError(f"{coll}/{key}")
        for (coll, key), doc in txn["writes"].items():
            self.collection(coll)[key] = doc
            self._bump(coll, key)
        return True


class MongoDBClient(ServiceClient):
    """Client handle bound to a caller node."""

    def __init__(self, net: Network, node: Node, service_name: str = "mongodb"):
        super().__init__(net, node, service_name)

    def find(self, collection: str, key: Any) -> Generator:
        return (yield from self._call("mongo.find", {"collection": collection, "key": key}))

    def upsert(self, collection: str, key: Any, doc: dict) -> Generator:
        return (yield from self._call("mongo.upsert", {"collection": collection, "key": key, "doc": doc}))

    def update(self, collection: str, key: Any, ops: List[dict]) -> Generator:
        return (yield from self._call("mongo.update", {"collection": collection, "key": key, "ops": ops}))

    def delete(self, collection: str, key: Any) -> Generator:
        return (yield from self._call("mongo.delete", {"collection": collection, "key": key}))

    def txn_begin(self) -> Generator:
        return (yield from self._call("mongo.txn_begin", {}))

    def txn_find(self, txn_id: int, collection: str, key: Any) -> Generator:
        return (
            yield from self._call(
                "mongo.txn_find", {"txn_id": txn_id, "collection": collection, "key": key}
            )
        )

    def txn_update(self, txn_id: int, collection: str, key: Any, ops: List[dict]) -> Generator:
        return (
            yield from self._call(
                "mongo.txn_update",
                {"txn_id": txn_id, "collection": collection, "key": key, "ops": ops},
            )
        )

    def txn_commit(self, txn_id: int) -> Generator:
        return (yield from self._call("mongo.txn_commit", {"txn_id": txn_id}))
