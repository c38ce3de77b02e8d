"""Load generators and fixtures shared by the chaos scenarios — and by the
transparency tests and the overload benchmark, which must offer the very
same traffic to compare like with like.

Every generator creates its kernel processes when called and draws from
a named RNG stream, so where a scenario calls it is part of that
scenario's pinned order of effects.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.chaos.history import History
from repro.core.cluster import BokiCluster
from repro.libs.bokiqueue.queue import BokiQueue
from repro.libs.bokistore.store import BokiStore

#: The history kinds :func:`gateway_store_clients` records.
STORE_KINDS = ("store.put", "store.get")

#: Per-op worker cost of ``bulk-op`` (10 ms of handler time plus dispatch
#: overhead, slightly padded): the denominator of the analytic saturation
#: goodput ``workers / BULK_COST`` the goodput SLO is measured against.
BULK_COST = 0.0105


def store_load(cluster: BokiCluster, history: History, num_clients: int,
               ops_per_client: int):
    """Client processes doing put/get on 4 shared keys through ONE engine.

    All clients share an engine because BokiStore's linearizability claim
    is per-index: cross-engine reads only get read-your-writes/monotonic
    reads (§4.4), which a linearizability checker would rightly reject.
    """
    env = cluster.env
    engine = cluster.engines["func-0"]
    rng = cluster.streams.stream("chaos-load")

    def client(i: int):
        store = history.watch(BokiStore(cluster.logbook(1, engine=engine)),
                              f"client-{i}")
        for j in range(ops_per_client):
            key = f"obj-{j % 4}"
            try:
                if rng.random() < 0.5:
                    yield from store.put(key, {"writer": f"c{i}", "n": j})
                else:
                    yield from store.get_object(key)
            except Exception:
                # Recorded as failed, i.e. indeterminate; the client moves
                # on, as a retrying application would.
                pass
            yield env.timeout(0.02 + rng.random() * 0.02)

    return [env.process(client(i), name=f"chaos-client-{i}")
            for i in range(num_clients)]


def register_store_fn(cluster: BokiCluster) -> None:
    """Deploy ``store-op``: a function doing one BokiStore put/get on the
    LogBook co-located with its node's engine."""
    def store_op(ctx, arg):
        store = BokiStore(cluster.logbook_for(ctx))
        if arg["op"] == "put":
            yield from store.put(arg["key"], arg["value"])
            return arg["value"]
        view = yield from store.get_object(arg["key"])
        return view.as_dict() if view.exists else None

    cluster.register_function("store-op", store_op)


def gateway_store_clients(cluster: BokiCluster, history: History,
                          num_clients: int, ops_per_client: int,
                          timeout: Optional[float] = None, policy=None):
    """Clients invoking ``store-op`` through the gateway, recording a
    client-side history op per invocation (the vantage point availability
    is measured from).

    Each client owns one key: retried puts are at-least-once at the log
    level, and a late duplicate append must not land after a *newer*
    write to the same key — single-writer keys make the client's own
    sequential order the only order, which retries preserve. The
    gateway's scheduler must be pinned to one node by the scenario
    (linearizability is per-index, §4.4).
    """
    env = cluster.env
    rng = cluster.streams.stream("chaos-load")

    def client(i: int):
        key = f"obj-{i}"
        name = f"client-{i}"
        for j in range(ops_per_client):
            if rng.random() < 0.8:
                value = {"writer": f"c{i}", "n": j}
                kind, arg = "store.put", {"op": "put", "key": key, "value": value}
            else:
                value = None
                kind, arg = "store.get", {"op": "get", "key": key}
            try:
                yield from history.record(name, kind, key, value, cluster.invoke(
                    "store-op", arg, book_id=1, timeout=timeout, policy=policy,
                ))
            except Exception:
                pass  # recorded as failed
            yield env.timeout(0.015 + rng.random() * 0.015)

    return [env.process(client(i), name=f"chaos-client-{i}")
            for i in range(num_clients)]


def register_bulk_fn(cluster: BokiCluster) -> None:
    """Deploy ``bulk-op``: pure compute holding a worker slot for 10 ms —
    the load signal the engine autoscaling policy reacts to."""
    env = cluster.env

    def bulk_op(ctx, arg):
        yield env.timeout(0.01)
        return arg

    cluster.register_function("bulk-op", bulk_op)


def pin_store_spread_bulk(cluster: BokiCluster) -> None:
    """Install the gateway scheduler of the mixed store + bulk scenarios:
    ``store-op`` is pinned to func-0 (linearizability is per-index,
    §4.4); ``bulk-op`` round-robins over the autoscaler's ACTIVE fleet."""
    gateway = cluster.gateway
    target = cluster.function_nodes[0]
    rr = itertools.count()

    def scheduler(fn_name, book_id):
        if fn_name == "store-op":
            return target
        alive = gateway.live_nodes()
        return alive[next(rr) % len(alive)]

    gateway.scheduler = scheduler


def overload_clients(cluster: BokiCluster, history: History, rate: float,
                     duration: float, policy=None, timeout=None,
                     priority: str = "interactive", start: float = 0.0,
                     kind: str = "bulk.op", tenant: Optional[str] = None):
    """Open-loop ``bulk-op`` arrivals at ``rate``/s for ``duration``.

    Open loop is what makes overload *sustained*: every arrival is its
    own client process, so slow (or shed) requests do not throttle the
    arrival rate the way a closed loop would — offered load stays at
    ``rate`` no matter what the cluster does with it. Each operation is
    recorded in ``history`` (kind ``bulk.op``), the vantage point
    :func:`~repro.chaos.liveness.overload_report` measures goodput from.

    Returns ``(generator_proc, op_procs)`` — drive the generator to
    completion first, then the (by that point fully populated) per-op
    process list.
    """
    env = cluster.env
    rng = cluster.streams.stream("chaos-overload")
    ops: List = []

    def one_op(i: int):
        try:
            yield from history.record("overload", kind, f"op-{i}", None, cluster.invoke(
                "bulk-op", i, timeout=timeout, policy=policy,
                priority=priority, tenant=tenant,
            ))
        except Exception:
            pass  # recorded as failed

    def generator():
        if start:
            yield env.timeout(start)
        for i in range(int(rate * duration)):
            ops.append(env.process(one_op(i), name=f"overload-op-{i}"))
            # ±10% jitter desynchronizes arrivals without changing the
            # offered rate (deterministic: named stream).
            yield env.timeout((0.9 + 0.2 * rng.random()) / rate)

    return env.process(generator(), name="overload-gen"), ops


def worker_peak(cluster: BokiCluster, interval: float = 0.005) -> Dict[str, float]:
    """Sample the deepest function-node worker queue into the returned
    ``{"worker.depth": peak}`` — the queue whose unbounded growth is the
    metastable-failure signature (zombie executions pile up behind
    client deadlines). Plain polling, not driven to completion: it
    simply stops being stepped once the client processes finish."""
    env = cluster.env
    peaks = {"worker.depth": 0}

    def sampler():
        while True:
            depth = max(f.queue_depth for f in cluster.function_nodes)
            if depth > peaks["worker.depth"]:
                peaks["worker.depth"] = depth
            yield env.timeout(interval)

    env.process(sampler(), name="chaos-queue-sampler")
    return peaks


def queue_load(run, name: str, book_id: int, prefix: str, total: int,
               rounds: int, max_polls: int, alongside=()):
    """Produce into and consume from a 2-shard BokiQueue on func-0's
    engine, in two driven phases; returns ``(pushed, popped)``.

    Phase 1 (driven together with the ``alongside`` processes): one
    producer pushes ``total`` values 20 ms apart while one polling
    consumer per shard pops up to ``rounds`` of them. Phase 2: both
    consumers are REPLACED by fresh instances (cold start: each rebuilds
    its shard view from the log and aux caches) that pop until empty.
    """
    cluster, history = run.cluster, run.history
    env = cluster.env
    queue = BokiQueue(cluster.logbook(book_id, engine=cluster.engines["func-0"]),
                      name, num_shards=2)
    run.watch(queue)
    counts = {"pushed": 0, "popped": 0}

    def producer_proc():
        producer = history.watch(queue.producer(), "producer")
        for i in range(total):
            yield from producer.push(f"msg-{i:04d}")
            counts["pushed"] += 1
            yield env.timeout(0.02)

    def consumer_proc(shard: int):
        consumer = history.watch(queue.consumer(shard), f"consumer-{shard}")
        for _ in range(rounds):
            value = yield from consumer.pop_wait(poll_interval=0.01,
                                                 max_polls=max_polls)
            if value is None:
                return
            counts["popped"] += 1

    def drain_proc(shard: int):
        consumer = history.watch(queue.consumer(shard), f"consumer-{shard}")
        while True:
            value = yield from consumer.pop()
            if value is None:
                return
            counts["popped"] += 1

    run.drive(
        list(alongside)
        + [env.process(producer_proc(), name=f"{prefix}-producer")]
        + [env.process(consumer_proc(s), name=f"{prefix}-consumer-{s}")
           for s in (0, 1)])
    run.drive([env.process(drain_proc(s), name=f"{prefix}-drain-{s}")
               for s in (0, 1)])
    return counts["pushed"], counts["popped"]
