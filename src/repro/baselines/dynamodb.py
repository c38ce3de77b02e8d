"""Simulated DynamoDB: the cloud database Beldi and BokiFlow store user
data in (§5.1, §7.2).

Implements the subset of DynamoDB both libraries rely on:

- tables of items keyed by a primary key, each item a dict of attributes;
- ``get`` / ``put`` / ``delete``;
- ``update`` with *condition expressions* — the atomic conditional update
  Beldi's linked DAAL and its locks are built on;
- atomic counter-style in-place updates.

Conditions are expressed as simple specs evaluated atomically with the
update: ``("absent",)``, ``("attr_lt", name, value)``, ``("attr_eq", name,
value)``, ``("exists",)``.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple

from repro.baselines.latency import (
    DYNAMODB_CONCURRENCY,
    DYNAMODB_COND_UPDATE,
    DYNAMODB_GET,
    DYNAMODB_PUT,
)
from repro.baselines.service import ServiceClient, SimulatedService
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.randvar import RandomStreams
from repro.sim.seam import Signal


class ConditionFailedError(Exception):
    """A conditional update's condition evaluated false."""


def _check_condition(item: Optional[dict], condition: Optional[Tuple]) -> bool:
    if condition is None:
        return True
    kind = condition[0]
    if kind == "absent":
        return item is None
    if kind == "exists":
        return item is not None
    if kind == "attr_lt_or_absent":
        # The idempotent-update guard (Figure 6a): apply if the item does
        # not exist yet or its version is older than ours.
        _, name, value = condition
        return item is None or name not in item or item[name] < value
    if item is None:
        return False
    if kind == "attr_lt":
        _, name, value = condition
        return name in item and item[name] < value
    if kind == "attr_le":
        _, name, value = condition
        return name in item and item[name] <= value
    if kind == "attr_eq":
        _, name, value = condition
        return item.get(name) == value
    if kind == "attr_absent":
        _, name = condition
        return name not in item
    raise ValueError(f"unknown condition kind {kind!r}")


class DynamoDBService(SimulatedService):
    """The simulated regional endpoint."""

    def __init__(self, env: Environment, net: Network, streams: RandomStreams, name: str = "dynamodb"):
        super().__init__(env, net, streams, name, DYNAMODB_CONCURRENCY)
        self.tables: Dict[str, Dict[Any, dict]] = {}
        #: Applied-effect journal (repro.chaos): one entry per *applied*
        #: update that carried an ``effect_id``. A logical effect appearing
        #: twice here means a duplicated side effect (exactly-once
        #: violation); the chaos checkers audit this list.
        self.effect_log: list = []
        #: Signal (see repro.sim.seam): an update carrying an
        #: ``effect_id`` was applied — feeds the online exactly-once monitor.
        self.effect_applied = Signal()   # (effect_id, table, key)
        self.node.handle("ddb.get", self._h_get)
        self.node.handle("ddb.put", self._h_put)
        self.node.handle("ddb.update", self._h_update)
        self.node.handle("ddb.delete", self._h_delete)
        self.node.handle("ddb.scan", self._h_scan)

    def table(self, name: str) -> Dict[Any, dict]:
        return self.tables.setdefault(name, {})

    def _h_get(self, payload: dict) -> Generator:
        yield from self._service(DYNAMODB_GET)
        item = self.table(payload["table"]).get(payload["key"])
        return dict(item) if item is not None else None

    def _h_put(self, payload: dict) -> Generator:
        yield from self._service(DYNAMODB_PUT)
        table = self.table(payload["table"])
        if not _check_condition(table.get(payload["key"]), payload.get("condition")):
            raise ConditionFailedError(payload["key"])
        table[payload["key"]] = dict(payload["item"])
        return True

    def _h_update(self, payload: dict) -> Generator:
        """Atomic read-modify-write of selected attributes, conditional."""
        yield from self._service(DYNAMODB_COND_UPDATE)
        table = self.table(payload["table"])
        item = table.get(payload["key"])
        if not _check_condition(item, payload.get("condition")):
            raise ConditionFailedError(payload["key"])
        if payload.get("effect_id") is not None:
            self.effect_log.append((payload["effect_id"], payload["table"], payload["key"]))
            self.effect_applied(payload["effect_id"], payload["table"], payload["key"])
        if item is None:
            item = table[payload["key"]] = {}
        for name, value in payload.get("set", {}).items():
            item[name] = value
        for name, amount in payload.get("add", {}).items():
            item[name] = item.get(name, 0) + amount
        return dict(item)

    def _h_delete(self, payload: dict) -> Generator:
        yield from self._service(DYNAMODB_PUT)
        table = self.table(payload["table"])
        if not _check_condition(table.get(payload["key"]), payload.get("condition")):
            raise ConditionFailedError(payload["key"])
        table.pop(payload["key"], None)
        return True

    def _h_scan(self, payload: dict) -> Generator:
        yield from self._service(DYNAMODB_GET)
        table = self.table(payload["table"])
        prefix = payload.get("key_prefix")
        if prefix is None:
            return {k: dict(v) for k, v in table.items()}
        return {k: dict(v) for k, v in table.items() if str(k).startswith(prefix)}


class DynamoDBClient(ServiceClient):
    """Client handle bound to a caller node; generator methods."""

    def __init__(self, net: Network, node: Node, service_name: str = "dynamodb"):
        super().__init__(net, node, service_name)

    def get(self, table: str, key: Any) -> Generator:
        return (yield from self._call("ddb.get", {"table": table, "key": key}))

    def put(self, table: str, key: Any, item: dict, condition: Optional[Tuple] = None) -> Generator:
        return (
            yield from self._call(
                "ddb.put", {"table": table, "key": key, "item": item, "condition": condition}
            )
        )

    def update(
        self,
        table: str,
        key: Any,
        set_attrs: Optional[dict] = None,
        add_attrs: Optional[dict] = None,
        condition: Optional[Tuple] = None,
        effect_id: Any = None,
    ) -> Generator:
        return (
            yield from self._call(
                "ddb.update",
                {
                    "table": table,
                    "key": key,
                    "set": set_attrs or {},
                    "add": add_attrs or {},
                    "condition": condition,
                    "effect_id": effect_id,
                },
            )
        )

    def delete(self, table: str, key: Any, condition: Optional[Tuple] = None) -> Generator:
        return (
            yield from self._call(
                "ddb.delete", {"table": table, "key": key, "condition": condition}
            )
        )

    def scan(self, table: str, key_prefix: Optional[str] = None) -> Generator:
        return (yield from self._call("ddb.scan", {"table": table, "key_prefix": key_prefix}))
