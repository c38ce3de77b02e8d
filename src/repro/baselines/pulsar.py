"""Simulated Apache Pulsar (§7.4, Table 4).

A distributed broker-based queue. In the paper's setup the brokers run on
the function nodes (locality) with queue data on the storage nodes, so
publishes/receives cost a broker hop plus a bookkeeper write — a ~1.5 ms
class operation, far cheaper than SQS's managed API but above BokiQueue's
LogBook appends at low load.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional, Tuple

from repro.baselines.latency import PULSAR_CONCURRENCY, PULSAR_PUBLISH, PULSAR_RECEIVE
from repro.baselines.service import ServiceClient, SimulatedService
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.randvar import RandomStreams

#: Broker-side backlog quota per topic partition: publishes are throttled
#: while consumers are behind (Pulsar's producer throttling / backlog
#: quotas), which is why Pulsar's delivery delays stay in the ~8 ms class
#: even at 4:1 producer-heavy load (Table 4) while SQS's explode.
BACKLOG_QUOTA = 48
THROTTLE_POLL = 1e-3


class PulsarBroker(SimulatedService):
    """One broker; a deployment runs several (e.g. one per function node)
    with topics partitioned across them."""

    def __init__(self, env: Environment, net: Network, streams: RandomStreams, name: str):
        super().__init__(env, net, streams, name, PULSAR_CONCURRENCY, cpu_capacity=16)
        self.topics: dict = {}
        self.node.handle("pulsar.publish", self._h_publish)
        self.node.handle("pulsar.receive", self._h_receive)

    def topic(self, name: str) -> Deque[Tuple[float, Any]]:
        return self.topics.setdefault(name, deque())

    def _h_publish(self, payload: dict) -> Generator:
        topic = self.topic(payload["topic"])
        while len(topic) >= BACKLOG_QUOTA:
            yield self.env.timeout(THROTTLE_POLL)
        yield from self._service(PULSAR_PUBLISH)
        topic.append((self.env.now, payload["message"]))
        return True

    def _h_receive(self, payload: dict) -> Generator:
        yield from self._service(PULSAR_RECEIVE)
        q = self.topic(payload["topic"])
        if not q:
            return None
        enqueued, message = q.popleft()
        return message, self.env.now - enqueued


class PulsarClient(ServiceClient):
    """Publishes/receives on a topic partitioned over a broker set."""

    def __init__(self, net: Network, node: Node, broker_names, num_partitions: int = 4):
        super().__init__(net, node, service_name=None)  # the broker is chosen per call
        self.broker_names = list(broker_names)
        self.num_partitions = num_partitions
        self._rr = 0

    def _broker_for(self, partition: int) -> str:
        return self.broker_names[partition % len(self.broker_names)]

    def publish(self, topic: str, message: Any, partition: Optional[int] = None) -> Generator:
        if partition is None:
            partition = self._rr % self.num_partitions
            self._rr += 1
        broker = self._broker_for(partition)
        return (
            yield from self._call(
                "pulsar.publish", {"topic": f"{topic}#{partition}", "message": message}, broker
            )
        )

    def receive(self, topic: str, partition: int) -> Generator:
        broker = self._broker_for(partition)
        return (
            yield from self._call(
                "pulsar.receive", {"topic": f"{topic}#{partition}"}, broker
            )
        )
