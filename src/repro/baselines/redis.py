"""Simulated Redis: the remote aux-data store ablation (§7.5, Table 5).

"To demonstrate the efficiency of Boki's storage mechanism for auxiliary
data, we modify Boki to store auxiliary data in a dedicated Redis
instance." Boki's co-located record cache wins by ~1.17x because every
Redis aux access is a network round trip.
"""

from __future__ import annotations

from typing import Any, Dict, Generator

from repro.baselines.latency import REDIS_CONCURRENCY, REDIS_GET, REDIS_PUT
from repro.baselines.service import ServiceClient, SimulatedService
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.randvar import RandomStreams


class RedisService(SimulatedService):
    def __init__(self, env: Environment, net: Network, streams: RandomStreams, name: str = "redis"):
        super().__init__(env, net, streams, name, REDIS_CONCURRENCY)
        self.data: Dict[Any, Any] = {}
        self.node.handle("redis.get", self._h_get)
        self.node.handle("redis.set", self._h_set)

    def _h_get(self, payload: dict) -> Generator:
        yield from self._service(REDIS_GET)
        return self.data.get(payload["key"])

    def _h_set(self, payload: dict) -> Generator:
        yield from self._service(REDIS_PUT)
        self.data[payload["key"]] = payload["value"]
        return True


class RedisClient(ServiceClient):
    def __init__(self, net: Network, node: Node, service_name: str = "redis"):
        super().__init__(net, node, service_name)

    def get(self, key: Any) -> Generator:
        return (yield from self._call("redis.get", {"key": key}))

    def set(self, key: Any, value: Any) -> Generator:
        return (yield from self._call("redis.set", {"key": key, "value": value}))


def redis_aux_channel(store, client: RedisClient) -> None:
    """Rewire a BokiStore to keep auxiliary data in Redis instead of the
    engine's record cache (the Table 5 'AuxData w/ Redis' configuration)."""

    def aux_get(record):
        value = yield from client.get(("aux", record.seqnum))
        return value

    def aux_put(record, aux):
        yield from client.set(("aux", record.seqnum), aux)

    store.aux_get = aux_get
    store.aux_put = aux_put
