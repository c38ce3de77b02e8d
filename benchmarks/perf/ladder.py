"""The layer ladder: isolated rungs, one layer's public functions each.

A rung is a :class:`~benchmarks.perf.workloads.Workload` on a minimal
fixture, measured with the same sliced, calibrated estimator as the five
workloads but much shorter. Every rung reports ``<rung>.refev_per_op``
(calibrated host cost) and ``<rung>.events_per_op`` (exact). The layer
matrix repeats the ``ladder.gateway.invoke`` fixture with one
``enable_*`` at a time and reports each layer's cost against it.

Which workload a rung predicts: kernel/network rungs -> ``append_heavy``;
logbook read rungs -> ``read_heavy``; bokistore rungs ->
``retwis_store``; the gateway rung and the layer matrix ->
``gateway_layers_off`` / ``gateway_layers_on``.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List

from benchmarks.perf.measure import Pass
from benchmarks.perf.workloads import PAYLOAD_1KB, Run, Workload
from repro.baselines.dynamodb import DynamoDBService
from repro.core.cluster import BokiCluster
from repro.libs.bokiflow import BokiFlowRuntime
from repro.libs.bokiqueue import BokiQueue
from repro.libs.bokistore import BokiStore, Transaction
from repro.sim import Environment, Network, Node
from repro.sim.randvar import RandomStreams

#: Slices per rung repetition (rungs are ~0.1 host-CPU s).
RUNG_SLICES = 8
CLIENTS = 8


class Rung(Run):
    """A fixture whose checks are the ops themselves."""

    def check(self) -> None:
        pass

    def loop(self, op: Callable[[int], Generator], kind: str = "op", clients: int = CLIENTS) -> None:
        """``clients`` closed-loop processes; ``op(i)`` is one operation."""
        def make_op(i: int) -> Callable[[], Generator]:
            def timed() -> Generator:
                started = self.env.now
                yield from op(i)
                self.done(kind, started)
            return timed
        self.closed_loop(clients, make_op)


# ----------------------------------------------------------------------
# Kernel and network: no cluster
# ----------------------------------------------------------------------
def kernel_timeout(seed: int) -> Run:
    rung = Rung(Environment())

    def op(i: int) -> Generator:
        yield rung.env.timeout(1e-3 + i * 1e-6)
    rung.loop(op, clients=64)
    return rung


def kernel_spawn_join(seed: int) -> Run:
    rung = Rung(Environment())

    def child() -> Generator:
        yield rung.env.timeout(1e-3)

    def op(i: int) -> Generator:
        yield rung.env.process(child())
    rung.loop(op, clients=64)
    return rung


def kernel_any_of(seed: int) -> Run:
    rung = Rung(Environment())

    def op(i: int) -> Generator:
        env = rung.env
        yield env.any_of([env.timeout(1e-3), env.timeout(2e-3), env.event()])
    rung.loop(op, clients=64)
    return rung


def _two_nodes(seed: int):
    env = Environment()
    net = Network(env, RandomStreams(seed=seed))
    return env, net, net.register(Node(env, "a")), net.register(Node(env, "b"))


def network_send(seed: int) -> Run:
    env, net, a, b = _two_nodes(seed)
    rung = Rung(env)
    b.handle("ping", lambda payload: rung.done("send", payload))

    def sender() -> Generator:
        while not rung.stopping:
            net.send(a, b, "ping", env.now)
            yield env.timeout(1e-4)
    for _ in range(CLIENTS):
        env.process(sender())
    return rung


def network_rpc(seed: int) -> Run:
    env, net, a, b = _two_nodes(seed)
    rung = Rung(env)
    b.handle("echo", lambda payload: payload)

    def op(i: int) -> Generator:
        yield net.rpc(a, b, "echo", PAYLOAD_1KB)
    rung.loop(op)
    return rung


# ----------------------------------------------------------------------
# Core: a booted default cluster
# ----------------------------------------------------------------------
def _booted(seed: int, **kwargs) -> Rung:
    cluster = BokiCluster(seed=seed, **kwargs)
    cluster.boot()
    return Rung(cluster.env, cluster)


def _engines(rung: Rung, book_id: int, indexing: bool = True) -> list:
    log_id = rung.cluster.term.log_for_book(book_id)
    return [e for e in rung.cluster.engines.values() if e.indexes(log_id) == indexing]


def logbook_append(seed: int) -> Run:
    rung = _booted(seed)
    engines = _engines(rung, 1)
    books = [rung.cluster.logbook(1, engine=engines[i % len(engines)]) for i in range(CLIENTS)]

    def op(i: int) -> Generator:
        yield from books[i].append(PAYLOAD_1KB)
    rung.loop(op)
    return rung


def _logbook_read(seed: int, drop: bool = False, remote: bool = False) -> Run:
    """Each client re-reads one record it appended during set-up: from
    the engine cache, from storage (cache dropped first), or through a
    remote index engine."""
    rung = _booted(seed, index_engines_per_log=1 if remote else None)
    engines = _engines(rung, 1, indexing=not remote)
    books = [rung.cluster.logbook(1, engine=engines[i % len(engines)]) for i in range(CLIENTS)]
    seqnums: List[int] = []

    def preload() -> Generator:
        for i, book in enumerate(books):
            seqnums.append((yield from book.append(PAYLOAD_1KB, tags=[100 + i])))
    rung.cluster.drive(preload())

    def op(i: int) -> Generator:
        if drop:
            books[i].engine.cache.drop(seqnums[i])
        record = yield from books[i].read_next(tag=100 + i, min_seqnum=seqnums[i])
        if record is None or record.seqnum != seqnums[i]:
            rung.fail(f"client {i} read {record!r}")
    rung.loop(op)
    return rung


def cluster_idle(seed: int) -> Run:
    rung = _booted(seed)

    def op(i: int) -> Generator:
        yield rung.env.timeout(1e-3)  # one op = one idle virtual millisecond
    rung.loop(op, clients=1)
    return rung


def gateway_invoke(seed: int, layer: str = "") -> Run:
    cluster = BokiCluster(seed=seed)
    if layer:
        getattr(cluster, f"enable_{layer}")()

    def noop(ctx, arg) -> Generator:
        return arg
        yield
    cluster.register_function("noop", noop)
    cluster.boot()
    rung = Rung(cluster.env, cluster)

    def op(i: int) -> Generator:
        yield from cluster.invoke("noop", i)
    rung.loop(op)
    return rung


# ----------------------------------------------------------------------
# Support libraries
# ----------------------------------------------------------------------
def _stores(rung: Rung, book_id: int) -> List[BokiStore]:
    engines = _engines(rung, book_id)
    return [
        BokiStore(rung.cluster.logbook(book_id, engine=engines[i % len(engines)]))
        for i in range(CLIENTS)
    ]


def bokistore_get_object(seed: int) -> Run:
    rung = _booted(seed)
    stores = _stores(rung, 60)

    def preload() -> Generator:
        for i, store in enumerate(stores):
            for version in range(4):
                yield from store.update(
                    f"obj:{i}", [{"op": "set", "path": "v", "value": version},
                                 {"op": "set", "path": "blob", "value": PAYLOAD_1KB}])
    rung.cluster.drive(preload())

    def op(i: int) -> Generator:
        view = yield from stores[i].get_object(f"obj:{i}")
        if view.get("v") != 3:
            rung.fail(f"obj:{i} read back {view.get('v')!r}")
    rung.loop(op)
    return rung


def bokistore_txn(seed: int) -> Run:
    rung = _booted(seed)
    stores = _stores(rung, 60)

    def op(i: int) -> Generator:
        # Two private objects per client: transactions never conflict.
        txn = yield from Transaction(stores[i]).begin()
        src = yield from txn.get_object(f"acct:{i}:a")
        dst = yield from txn.get_object(f"acct:{i}:b")
        src.inc("balance", -1)
        dst.inc("balance", 1)
        if not (yield from txn.commit()):
            rung.fail(f"client {i}: conflict-free transaction aborted")
    rung.loop(op)
    return rung


def bokiqueue_push_pop(seed: int) -> Run:
    rung = _booted(seed)
    engines = _engines(rung, 77)
    ends = []
    for i in range(CLIENTS):
        queue = BokiQueue(rung.cluster.logbook(77, engine=engines[i % len(engines)]), f"q{i}")
        ends.append((queue.producer(), queue.consumer(0)))
    count = [0] * CLIENTS

    def op(i: int) -> Generator:
        producer, consumer = ends[i]
        count[i] += 1
        yield from producer.push(count[i])
        popped = yield from consumer.pop()
        if popped != count[i]:
            rung.fail(f"queue q{i} popped {popped!r}, pushed {count[i]}")
    rung.loop(op)
    return rung


def bokiflow_step(seed: int) -> Run:
    cluster = BokiCluster(seed=seed)
    DynamoDBService(cluster.env, cluster.net, cluster.streams)
    cluster.boot()
    rung = Rung(cluster.env, cluster)
    runtime = BokiFlowRuntime(cluster)

    def writer(env, arg) -> Generator:
        # One op = one exactly-once write step of a running workflow.
        for k in range(arg["steps"]):
            started = rung.env.now
            yield from env.write("bench", f"{arg['client']}:{k % 16}", k)
            rung.done("step", started)
    runtime.register_workflow("perf-writer", writer)

    def workflow(i: int) -> Callable[[], Generator]:
        def op() -> Generator:
            yield from runtime.start_workflow(
                "perf-writer", {"steps": 16, "client": i}, book_id=50 + i)
        return op
    rung.closed_loop(CLIENTS, workflow)
    return rung


LAYER_SWITCHES = {
    "obs": "observability", "monitor": "monitoring", "resil": "resilience",
    "admission": "admission", "tenant": "tenancy",
}


def _rung(name: str, duration: float, build: Callable[[int], Run]) -> Workload:
    return Workload(f"ladder.{name}", "", duration, build, slices=RUNG_SLICES)


#: Virtual durations sized to ~0.08 host-CPU s per repetition at the seed.
RUNGS: List[Workload] = [
    _rung("kernel.timeout", 0.25, kernel_timeout),
    _rung("kernel.spawn_join", 0.08, kernel_spawn_join),
    _rung("kernel.any_of", 0.06, kernel_any_of),
    _rung("network.send", 0.05, network_send),
    _rung("network.rpc", 0.02, network_rpc),
    _rung("logbook.append", 0.02, logbook_append),
    _rung("logbook.read_cached", 0.02, _logbook_read),
    _rung("logbook.read_storage", 0.03, lambda seed: _logbook_read(seed, drop=True)),
    _rung("logbook.read_remote", 0.02, lambda seed: _logbook_read(seed, remote=True)),
    _rung("cluster.idle", 0.2, cluster_idle),
    _rung("gateway.invoke", 0.025, gateway_invoke),
    _rung("bokistore.get_object", 0.1, bokistore_get_object),
    _rung("bokistore.txn", 0.03, bokistore_txn),
    _rung("bokiqueue.push_pop", 0.03, bokiqueue_push_pop),
    _rung("bokiflow.step", 0.05, bokiflow_step),
] + [
    _rung(f"layer.{layer}", 0.025, lambda seed, switch=switch: gateway_invoke(seed, switch))
    for layer, switch in LAYER_SWITCHES.items()
]


def run_ladder(seed: int, reps: int, rungs: List[Workload] = RUNGS) -> dict:
    """Every rung, ``reps`` timed repetitions each (after a counted one).
    Returns metrics plus the failures any rung's own checks found."""
    metrics: Dict[str, float] = {}
    attempted = failed = 0
    messages: List[str] = []
    for rung in rungs:
        run = Pass(rung, seed)
        run.run_reps(reps)
        attempted += run.attempted
        failed += run.failed
        messages += [f"{rung.name}: {m}" for m in run.messages]
        if not run.ops:
            raise RuntimeError(f"{rung.name} completed no operation")
        metrics[f"{rung.name}.refev_per_op"] = run.refev_per_op()
        metrics[f"{rung.name}.events_per_op"] = run.counted.extra["events"] / run.ops
    base = "ladder.gateway.invoke"
    for layer in LAYER_SWITCHES:
        name = f"ladder.layer.{layer}"
        metrics[f"{name}.overhead_ratio"] = (
            metrics.pop(f"{name}.refev_per_op") / metrics[f"{base}.refev_per_op"])
        metrics[f"{name}.extra_events_per_op"] = (
            metrics.pop(f"{name}.events_per_op") - metrics[f"{base}.events_per_op"])
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "messages": messages}
