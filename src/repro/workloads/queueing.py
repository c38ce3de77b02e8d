"""Producer/consumer message-queue workload (§7.4, Table 4).

Fixed numbers of producer and consumer functions: each producer pushes
1 KB messages back to back; each consumer pops in a loop. Measures message
throughput (pops of real messages per second) and delivery latency (time a
message spends in the queue, stamped into the payload).

Backends adapt BokiQueue, simulated SQS, and simulated Pulsar to a common
push/pop interface.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.sim.kernel import Environment
from repro.sim.metrics import LatencyRecorder
from repro.workloads.harness import run_closed_loop

MESSAGE_PAD = "m" * 1024
#: The SQS queue :class:`SQSBackend` pushes to and pops from.
SQS_QUEUE = "bench-q"
#: How long a consumer that found the queue empty waits to poll again.
EMPTY_POLL_BACKOFF = 2e-3


class QueueBackend:
    """Adapter interface: per-producer push handles and per-consumer pop
    handles."""

    def make_producer(self, index: int) -> Callable[[Any], Generator]:
        raise NotImplementedError

    def make_consumer(self, index: int) -> Callable[[], Generator]:
        """Returns a pop() generator factory yielding (payload, sent_time)
        tuples or None when empty."""
        raise NotImplementedError


class BokiQueueBackend(QueueBackend):
    def __init__(
        self,
        cluster,
        num_shards: int,
        name: str = "bench-q",
        book_id: int = 77,
        max_backlog: Optional[int] = 16,
    ):
        from repro.libs.bokiqueue import BokiQueue

        self.cluster = cluster
        self.queues = {}
        engines = list(cluster.engines.values())
        self._engines = engines
        self.name = name
        self.book_id = book_id
        self.num_shards = num_shards
        self.max_backlog = max_backlog

    def _queue_for(self, engine_index: int):
        from repro.libs.bokiqueue import BokiQueue

        engine = self._engines[engine_index % len(self._engines)]
        key = engine.name
        if key not in self.queues:
            self.queues[key] = BokiQueue(
                self.cluster.logbook(self.book_id, engine=engine),
                self.name,
                num_shards=self.num_shards,
            )
        return self.queues[key]

    def make_producer(self, index: int):
        producer = self._queue_for(index).producer(max_backlog=self.max_backlog)

        def push(message):
            yield from producer.push(message)

        return push

    def make_consumer(self, index: int):
        consumer = self._queue_for(index).consumer(index % self.num_shards)

        def pop():
            return (yield from consumer.pop())

        return pop


class SQSBackend(QueueBackend):
    def __init__(self, cluster):
        from repro.baselines.sqs import SQSClient

        self.cluster = cluster
        self._client = SQSClient(cluster.net, cluster.client_node)

    def make_producer(self, index: int):
        def push(message):
            yield from self._client.send(SQS_QUEUE, message)

        return push

    def make_consumer(self, index: int):
        def pop():
            result = yield from self._client.receive(SQS_QUEUE)
            return result[0] if result is not None else None

        return pop


class PulsarBackend(QueueBackend):
    def __init__(self, cluster, broker_names: List[str], num_partitions: int, topic: str = "bench-t"):
        from repro.baselines.pulsar import PulsarClient

        self.cluster = cluster
        self.topic = topic
        self.num_partitions = num_partitions
        self._client = PulsarClient(
            cluster.net, cluster.client_node, broker_names, num_partitions=num_partitions
        )

    def make_producer(self, index: int):
        def push(message):
            yield from self._client.publish(self.topic, message)

        return push

    def make_consumer(self, index: int):
        partition = index % self.num_partitions

        def pop():
            result = yield from self._client.receive(self.topic, partition)
            return result[0] if result is not None else None

        return pop


def run_queue_workload(
    env: Environment,
    backend: QueueBackend,
    num_producers: int,
    num_consumers: int,
    duration: float,
) -> Tuple[float, LatencyRecorder]:
    """Closed-loop clients 0..P-1 push, the rest pop; a consumer that
    finds the queue empty waits ``EMPTY_POLL_BACKOFF`` before its next
    pop. Returns (message throughput, delivery-latency recorder)."""

    def make_op(index: int, measure) -> Callable[[], Generator]:
        if index < num_producers:
            push = backend.make_producer(index)
            sent = itertools.count()
            return lambda: push(
                {"sent": env.now, "pad": MESSAGE_PAD, "i": (index, next(sent))})
        pop = backend.make_consumer(index - num_producers)

        def consume() -> Generator:
            message = yield from pop()
            if message is None:
                yield env.timeout(EMPTY_POLL_BACKOFF)
            else:
                measure("delivery", message["sent"])

        return consume

    result = run_closed_loop(env, make_op, num_producers + num_consumers, duration)
    delivery = result.extra.get("delivery", LatencyRecorder("delivery"))
    return delivery.count / duration, delivery
