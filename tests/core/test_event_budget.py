"""Kernel events per LogBook and support-library operation, pinned exactly.

``tests/sim/test_event_budget.py`` pins the primitives; this file pins what
the protocols built from them cost. Every scenario is a seed-0 cluster
driven by one client (except the contended append), so the totals repeat
exactly; they include the cluster's background ticking (progress reports,
metalog cuts, maintenance) during the operations' virtual time, which is
why the idle cluster is pinned too. Lowering a number is an improvement
and is recorded here; raising one needs a reason in the PR that does it.
A mismatch prints what the entries were (``tests.conftest.count_events``).
"""

from repro.baselines.dynamodb import DynamoDBService
from repro.core.cluster import BokiCluster
from repro.libs.bokiflow import BokiFlowRuntime
from repro.libs.bokiqueue import BokiQueue
from repro.libs.bokistore import BokiStore, Transaction
from tests.conftest import count_events

PAYLOAD = "x" * 1024


def booted(**kwargs) -> BokiCluster:
    cluster = BokiCluster(seed=0, **kwargs)
    cluster.boot()
    return cluster


def pick_engine(cluster, book_id, indexing=True):
    log_id = cluster.term.log_for_book(book_id)
    return next(e for e in cluster.engines.values() if e.indexes(log_id) == indexing)


def repeat(cluster, op, n):
    """``n`` back-to-back ``op()``s as one driven process."""
    def loop():
        for _ in range(n):
            yield from op()
    return lambda: cluster.drive(loop())


def test_one_sequential_append():
    cluster = booted(num_function_nodes=1, num_storage_nodes=3)
    book = cluster.logbook(1)
    cluster.drive(book.append("warm"))
    # The append's own 15: 2 IPC hops, the engine's CPU hold, the replicate
    # fan-out (1 begin, 1 departure, 3 arrivals, 3 storage holds, 3
    # replies) and the ordering event. The metalog round that orders it,
    # 11: the quorum (1 + 1 + 2 + 2) and the broadcast to 4 subscribers
    # (1 + 4). The driver's 2. The rest is 1.1 virtual ms of progress
    # reports (15) and ticks (8).
    assert count_events(cluster.env, repeat(cluster, lambda: book.append(PAYLOAD), 1)) == 51


def test_contended_appends_on_the_append_heavy_shape():
    cluster = booted(num_function_nodes=4, num_storage_nodes=8, num_sequencer_nodes=3)
    engines = list(cluster.engines.values())
    done = [0]

    def client(book):
        while True:
            yield from book.append(PAYLOAD)
            done[0] += 1

    for i in range(80):
        cluster.env.process(client(cluster.logbook(1, engine=engines[i % 4])))
    cluster.env.run(until=cluster.env.now + 0.005)  # leave the lockstep start
    done[0] = 0
    total = count_events(cluster.env, lambda: cluster.env.run(until=cluster.env.now + 0.01))
    assert (total, done[0]) == (15167, 734)  # 20.66 per append


def _reader(cluster, drop=False, remote=False):
    engine = pick_engine(cluster, 1, indexing=not remote)
    book = cluster.logbook(1, engine=engine)
    seqnum = cluster.drive(book.append(PAYLOAD, tags=[7]))

    def op():
        if drop:
            engine.cache.drop(seqnum)
        record = yield from book.read_next(tag=7, min_seqnum=seqnum)
        assert record.seqnum == seqnum
    return op


def test_cached_reads():
    cluster = booted()
    assert count_events(cluster.env, repeat(cluster, _reader(cluster), 100)) == 745


def test_storage_reads():
    cluster = booted()
    assert count_events(cluster.env, repeat(cluster, _reader(cluster, drop=True), 100)) == 2775


def test_remote_reads():
    cluster = booted(index_engines_per_log=1)
    assert count_events(cluster.env, repeat(cluster, _reader(cluster, remote=True), 100)) == 1546


def test_trims():
    cluster = booted()
    book = cluster.logbook(1)
    seqnum = cluster.drive(book.append(PAYLOAD, tags=[7]))
    assert count_events(cluster.env, repeat(cluster, lambda: book.trim(seqnum, tag=7), 20)) == 401


def test_bokistore_transactions():
    cluster = booted()
    store = BokiStore(cluster.logbook(60, engine=pick_engine(cluster, 60)))

    def op():
        txn = yield from Transaction(store).begin()
        src = yield from txn.get_object("acct:a")
        dst = yield from txn.get_object("acct:b")
        src.inc("balance", -1)
        dst.inc("balance", 1)
        assert (yield from txn.commit())

    assert count_events(cluster.env, repeat(cluster, op, 20)) == 3991


def test_bokiqueue_push_pop():
    cluster = booted()
    queue = BokiQueue(cluster.logbook(77, engine=pick_engine(cluster, 77)), "q")
    producer, consumer = queue.producer(), queue.consumer(0)
    count = [0]

    def op():
        count[0] += 1
        yield from producer.push(count[0])
        assert (yield from consumer.pop()) == count[0]

    assert count_events(cluster.env, repeat(cluster, op, 20)) == 3406


def test_bokiflow_steps():
    cluster = BokiCluster(seed=0)
    DynamoDBService(cluster.env, cluster.net, cluster.streams)
    cluster.boot()
    runtime = BokiFlowRuntime(cluster)

    def writer(env, arg):
        for k in range(arg):
            yield from env.write("bench", f"key:{k}", k)
    runtime.register_workflow("writer", writer)
    # One workflow of 16 exactly-once write steps, its start and end included.
    total = count_events(cluster.env, lambda: cluster.drive(
        runtime.start_workflow("writer", 16, book_id=50)))
    assert total == 3115


def test_idle_cluster():
    cluster = booted()
    cluster.env.run(until=cluster.env.now + 0.001)  # boot's last messages land
    # 100 idle virtual milliseconds: nothing to order, everything ticks.
    # Recorded, not lowered: tickers that park when idle are still open.
    total = count_events(cluster.env, lambda: cluster.env.run(until=cluster.env.now + 0.1))
    assert total == 3731  # 37.31 per virtual ms
