"""The shape every simulated comparator service shares.

A service is one network node with a bounded number of request slots and
a latency stream; each handler holds a slot for a service time sampled
from the calibrated model of the operation (:mod:`repro.baselines.latency`).
A client is bound to a caller node and surfaces the handler's own
exception rather than the transport's wrapper.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.sim.kernel import Environment
from repro.sim.network import Network, RpcError
from repro.sim.node import Node
from repro.sim.randvar import RandomStreams
from repro.sim.sync import Resource


class SimulatedService:
    """Registers node ``name``; subclasses add state and ``node.handle``
    their methods."""

    def __init__(
        self,
        env: Environment,
        net: Network,
        streams: RandomStreams,
        name: str,
        concurrency: int,
        cpu_capacity: Optional[int] = None,
    ):
        self.env = env
        self.net = net
        self.node = net.register(Node(env, name, cpu_capacity=cpu_capacity or concurrency))
        self._rng = streams.stream(f"{name}-latency")
        self._slots = Resource(env, capacity=concurrency)
        self.op_count = 0

    def _service(self, model) -> Generator:
        self.op_count += 1
        req = self._slots.request()
        yield req
        try:
            yield self.env.timeout(model.sample(self._rng))
        finally:
            self._slots.release(req)


class ServiceClient:
    """Client handle bound to a caller node; generator methods."""

    def __init__(self, net: Network, node: Node, service_name: Optional[str]):
        self.net = net
        self.node = node
        self.service_name = service_name

    def _call(self, method: str, payload: dict, service: Optional[str] = None) -> Generator:
        try:
            result = yield self.net.rpc(
                self.node, service or self.service_name, method, payload, timeout=30.0
            )
        except RpcError as exc:
            raise exc.cause from None
        return result
