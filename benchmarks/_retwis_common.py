"""Shared Retwis runners for the §7.3 / §7.5 experiments."""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Generator, Optional

from repro.baselines.mongodb import MongoDBClient
from repro.core.cluster import BokiCluster
from repro.libs.bokistore import BokiStore
from repro.workloads.harness import RunResult, run_closed_loop
from repro.workloads.retwis import RetwisBokiStore, RetwisMongo, retwis_op


def _retwis_clients(cluster: BokiCluster, backend_for_client: Callable[[int], object]):
    """A ``make_op`` for :func:`run_closed_loop`: each client draws its
    requests from the paper's mixture, and each request's latency is
    measured under its kind (``result.extra[kind]``)."""
    env = cluster.env
    rng = cluster.streams.stream("retwis-mixture")

    def make_op(index: int, measure):
        backend = backend_for_client(index)
        request_ids = itertools.count()

        def measured(kind: str, request: Generator, started: float) -> Generator:
            yield from request
            measure(kind, started)

        def op() -> Generator:
            kind, request = retwis_op(backend, rng, next(request_ids))
            return measured(kind, request, env.now)

        return op

    return make_op


def run_retwis_bokistore(
    cluster: BokiCluster,
    num_clients: int,
    duration: float,
    num_users: int = 100,
    local_fraction: float = 1.0,
    aux_channel: Optional[Callable[[BokiStore], None]] = None,
    book_id: int = 60,
    history: int = 0,
) -> RunResult:
    """Retwis over BokiStore.

    ``local_fraction`` binds that share of clients to engines that index
    the log (local reads); the rest read through remote engines (Table 6).
    ``aux_channel`` rewires aux storage (Table 5's Redis and disabled
    variants).
    ``history`` pre-appends that many updates per user/timeline object,
    modelling a long-running deployment whose objects have accumulated
    writes (the Table 5 duration axis).
    """
    log_id = cluster.term.log_for_book(book_id)
    indexers = [e for e in cluster.engines.values() if e.indexes(log_id)]
    others = [e for e in cluster.engines.values() if not e.indexes(log_id)]

    def make_store(engine) -> BokiStore:
        store = BokiStore(cluster.logbook(book_id, engine=engine))
        if aux_channel is not None:
            aux_channel(store)
        return store

    # Every backend of the run takes tweet ids from one source.
    tweet_ids = itertools.count(1)
    # Initialize the dataset through a local store.
    init_backend = RetwisBokiStore(make_store(indexers[0]), num_users=num_users,
                                   tweet_ids=tweet_ids)
    cluster.drive(init_backend.init_users(), limit=3600.0)
    if history:
        def build_history():
            store = init_backend.store
            for u in range(num_users):
                for i in range(history):
                    yield from store.update(
                        f"user:{u}",
                        [{"op": "set", "path": "last_seen", "value": i}],
                    )
                    yield from store.update(
                        f"timeline:{u}",
                        [{"op": "push", "path": "posts", "value": 0}],
                    )

        cluster.drive(build_history(), limit=36000.0)

        # Steady state of a long-running deployment: every serving
        # engine's caches are warm (one read per object per engine).
        def warm(engine):
            store = make_store(engine)
            for u in range(num_users):
                yield from store.get_object(f"user:{u}")
                yield from store.get_object(f"timeline:{u}")

        for engine in indexers:
            cluster.drive(warm(engine), limit=36000.0)

    backends: Dict[int, RetwisBokiStore] = {}

    def backend_for_client(index: int) -> RetwisBokiStore:
        if index not in backends:
            local_quota = round(local_fraction * num_clients)
            if index < local_quota or not others:
                engine = indexers[index % len(indexers)]
            else:
                engine = others[index % len(others)]
            backends[index] = RetwisBokiStore(make_store(engine), num_users=num_users,
                                              tweet_ids=tweet_ids)
        return backends[index]

    return run_closed_loop(cluster.env, _retwis_clients(cluster, backend_for_client),
                           num_clients, duration)


def run_retwis_mongo(
    cluster: BokiCluster,
    num_clients: int,
    duration: float,
    num_users: int = 100,
) -> RunResult:
    """Retwis over simulated MongoDB (requires MongoDBService registered)."""
    client = MongoDBClient(cluster.net, cluster.client_node)
    tweet_ids = itertools.count(1)
    init_backend = RetwisMongo(client, num_users=num_users, tweet_ids=tweet_ids)
    cluster.drive(init_backend.init_users(), limit=3600.0)
    backends: Dict[int, RetwisMongo] = {}

    def backend_for_client(index: int) -> RetwisMongo:
        if index not in backends:
            node = cluster.function_nodes[index % len(cluster.function_nodes)].node
            backends[index] = RetwisMongo(
                MongoDBClient(cluster.net, node), num_users=num_users,
                tweet_ids=tweet_ids,
            )
        return backends[index]

    return run_closed_loop(cluster.env, _retwis_clients(cluster, backend_for_client),
                           num_clients, duration)
