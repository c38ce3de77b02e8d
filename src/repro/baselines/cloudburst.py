"""Simulated Cloudburst: the stateful-FaaS KVS comparator (§7.3, Figure 13).

Cloudburst exports a put/get key-value interface backed by Anna, with
caches co-located on function nodes and *causal* consistency: gets can be
served from a possibly stale local cache; puts go to the backing store and
propagate to caches asynchronously. BokiStore is compared against it on
raw get/put throughput and latency; Cloudburst is faster per cache hit but
offers weaker guarantees and no transactions.
"""

from __future__ import annotations

from typing import Any, Dict, Generator

from repro.baselines.latency import (
    CLOUDBURST_CACHE_HIT,
    CLOUDBURST_CACHE_MISS,
    CLOUDBURST_CONCURRENCY,
    CLOUDBURST_PUT,
)
from repro.baselines.service import ServiceClient, SimulatedService
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.randvar import RandomStreams

#: How long after a put before remote caches observe the new value.
PROPAGATION_DELAY = 5e-3


class CloudburstService(SimulatedService):
    """The backing Anna-style store plus per-function-node caches."""

    def __init__(self, env: Environment, net: Network, streams: RandomStreams, name: str = "cloudburst"):
        super().__init__(env, net, streams, name, CLOUDBURST_CONCURRENCY)
        self.store: Dict[Any, Any] = {}
        #: cache_name -> {key: (value, valid_from_time)}
        self.caches: Dict[str, Dict[Any, Any]] = {}
        self.node.handle("cb.get", self._h_get)
        self.node.handle("cb.put", self._h_put)

    def _h_get(self, payload: dict) -> Generator:
        cache = self.caches.setdefault(payload["cache"], {})
        if payload["key"] in cache:
            yield from self._service(CLOUDBURST_CACHE_HIT)
            return cache[payload["key"]]
        yield from self._service(CLOUDBURST_CACHE_MISS)
        value = self.store.get(payload["key"])
        cache[payload["key"]] = value
        return value

    def _h_put(self, payload: dict) -> Generator:
        yield from self._service(CLOUDBURST_PUT)
        key, value = payload["key"], payload["value"]
        self.store[key] = value
        # The writer's own cache sees the new value immediately (causal:
        # read-your-writes at the writing site); other caches converge
        # after the propagation delay.
        self.caches.setdefault(payload["cache"], {})[key] = value
        self.env.process(self._propagate(key, value, payload["cache"]), name="cb-propagate")
        return True

    def _propagate(self, key: Any, value: Any, origin_cache: str) -> Generator:
        yield self.env.timeout(PROPAGATION_DELAY)
        for cache_name, cache in self.caches.items():
            if cache_name != origin_cache and key in cache:
                cache[key] = value


class CloudburstClient(ServiceClient):
    """Bound to a function node; the node name selects its cache."""

    def __init__(self, net: Network, node: Node, service_name: str = "cloudburst"):
        super().__init__(net, node, service_name)

    def get(self, key: Any) -> Generator:
        return (yield from self._call("cb.get", {"cache": self.node.name, "key": key}))

    def put(self, key: Any, value: Any) -> Generator:
        return (yield from self._call("cb.put", {"cache": self.node.name, "key": key, "value": value}))
