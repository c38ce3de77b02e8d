"""Simulated Amazon SQS (§7.4, Table 4).

A fully managed queue service: every send/receive is an HTTP API round
trip with multi-millisecond latency, and per-queue request capacity means
producer-heavy loads (the 4:1 P:C configurations) build deep queues with
the large delivery delays Table 4 shows for SQS.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Tuple

from repro.baselines.latency import SQS_CONCURRENCY, SQS_RECEIVE, SQS_SEND
from repro.baselines.service import ServiceClient, SimulatedService
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.randvar import RandomStreams


class SQSService(SimulatedService):
    """The simulated regional SQS endpoint: named FIFO-ish queues."""

    def __init__(self, env: Environment, net: Network, streams: RandomStreams, name: str = "sqs"):
        super().__init__(env, net, streams, name, SQS_CONCURRENCY)
        #: queue name -> deque of (enqueue_time, message)
        self.queues: dict = {}
        self.node.handle("sqs.send", self._h_send)
        self.node.handle("sqs.receive", self._h_receive)

    def queue(self, name: str) -> Deque[Tuple[float, Any]]:
        return self.queues.setdefault(name, deque())

    def _h_send(self, payload: dict) -> Generator:
        yield from self._service(SQS_SEND)
        self.queue(payload["queue"]).append((self.env.now, payload["message"]))
        return True

    def _h_receive(self, payload: dict) -> Generator:
        """Returns (message, time_in_queue) or None when empty."""
        yield from self._service(SQS_RECEIVE)
        q = self.queue(payload["queue"])
        if not q:
            return None
        enqueued, message = q.popleft()
        return message, self.env.now - enqueued


class SQSClient(ServiceClient):
    def __init__(self, net: Network, node: Node, service_name: str = "sqs"):
        super().__init__(net, node, service_name)

    def send(self, queue: str, message: Any) -> Generator:
        return (yield from self._call("sqs.send", {"queue": queue, "message": message}))

    def receive(self, queue: str) -> Generator:
        """Returns (message, delivery_latency) or None."""
        return (yield from self._call("sqs.receive", {"queue": queue}))
