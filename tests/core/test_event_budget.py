"""Kernel events per LogBook and support-library operation, pinned exactly.

``tests/sim/test_event_budget.py`` pins the primitives; this file pins what
the protocols built from them cost. Every scenario is a seed-0 cluster
driven by one client (except the contended append), so the totals repeat
exactly; they include the rounds of the cluster's tickers (progress
reports, metalog cuts, the engine watchdog) that the operations themselves
set off. With nothing to order every ticker is parked
(``repro.sim.sync.Ticker``), so the idle cluster is pinned at zero, and the
second half of this file checks that each parked loop is woken by
whatever gives it work, also when messages are lost. Lowering a number is
an improvement and is recorded here; raising one needs a reason in the PR
that does it. A mismatch prints what the entries were
(``tests.conftest.count_events``).
"""

from repro.baselines.dynamodb import DynamoDBService
from repro.core.cluster import BokiCluster
from repro.core.ordering import STALL_FETCH_DELAY, TAIL_FETCH_DELAY
from repro.libs.bokiflow import BokiFlowRuntime
from repro.libs.bokiqueue import BokiQueue
from repro.libs.bokistore import BokiStore, Transaction
from repro.sim.network import DEFAULT_RTT
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
    # The append's own 13: 2 IPC hops, the engine's CPU hold, the replicate
    # fan-out (3 arrivals, 3 storage holds, 3 replies) and the ordering
    # event. The metalog round that orders it, 8: the quorum (2 + 2) and
    # the broadcast to 4 subscribers. The bootstrap of the loop that
    # drives it, 1 (nobody joins that loop, so it ends without an entry).
    # The rest, 7, is the ticker rounds it sets off: on each of three
    # storage nodes the round the record woke, 3; their 3 reports'
    # arrivals; and the primary's one round, woken by the first report.
    # The entry that orders the record drops each storage node's re-send
    # deadline, so no round finds it ordered (35 while one did, on each
    # node, after every record). Messages depart inside the step that
    # sends them.
    assert count_events(cluster.env, repeat(cluster, lambda: book.append(PAYLOAD), 1)) == 29


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
    # 17.31 per append. 12,605 / 725 (17.39) while storage nodes re-sent
    # unchanged vectors every interval and the watchdog ticked: the
    # repeats that are gone shifted the jitter draws, so this is a
    # different sample path of the same load. 15,469 / 734 while messages
    # departed from an entry of their own, and 15,167 / 734 while every
    # ticker ticked, for the same reason.
    assert (total, done[0]) == (12912, 746)


def _reader(cluster, drop=False, remote=False):
    """The read op of the three read pins below, after one setup append.
    Those pins, and the trims', are 3 lower than while each storage node's
    round after the setup append, which found it ordered, ran inside the
    counted window."""
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
    assert count_events(cluster.env, repeat(cluster, _reader(cluster), 100)) == 305


def test_storage_reads():
    cluster = booted()
    assert count_events(cluster.env, repeat(cluster, _reader(cluster, drop=True), 100)) == 701


def test_remote_reads():
    cluster = booted(index_engines_per_log=1)
    assert count_events(cluster.env, repeat(cluster, _reader(cluster, remote=True), 100)) == 505


def test_trims():
    cluster = booted()
    book = cluster.logbook(1)
    seqnum = cluster.drive(book.append(PAYLOAD, tags=[7]))
    assert count_events(cluster.env, repeat(cluster, lambda: book.trim(seqnum, tag=7), 20)) == 201


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

    # 2,201 while storage nodes re-sent unchanged vectors every interval
    # and the watchdog ticked while appends waited.
    assert count_events(cluster.env, repeat(cluster, op, 20)) == 1850


def test_bokiqueue_push_pop():
    cluster = booted()
    queue = BokiQueue(cluster.logbook(77, engine=pick_engine(cluster, 77)), "q")
    producer, consumer = queue.producer(), queue.consumer(0)
    count = [0]

    def op():
        count[0] += 1
        yield from producer.push(count[0])
        assert (yield from consumer.pop()) == count[0]

    # 2,079 while storage nodes re-sent unchanged vectors every interval
    # and the watchdog ticked while appends waited.
    assert count_events(cluster.env, repeat(cluster, op, 20)) == 1732


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
    # 1,017 while storage nodes re-sent unchanged vectors every interval
    # and the watchdog ticked while appends waited.
    total = count_events(cluster.env, lambda: cluster.drive(
        runtime.start_workflow("writer", 16, book_id=50)))
    assert total == 849


def test_idle_cluster():
    cluster = booted()
    cluster.env.run(until=cluster.env.now + 0.001)  # boot's last messages land
    # 100 idle virtual milliseconds: nothing to order, so every ticker is
    # parked (3,731 while everything ticked).
    total = count_events(cluster.env, lambda: cluster.env.run(until=cluster.env.now + 0.1))
    assert total == 0


def test_idle_cluster_with_every_layer_on():
    cluster = BokiCluster(seed=0)
    cluster.enable_observability()
    cluster.enable_monitoring()
    cluster.enable_resilience()
    cluster.enable_admission()
    cluster.enable_tenancy()
    cluster.boot()
    cluster.env.run(until=cluster.env.now + 0.001)
    total = count_events(cluster.env, lambda: cluster.env.run(until=cluster.env.now + 0.1))
    assert total == 2  # the alert manager's 50 ms sampler


# ----------------------------------------------------------------------
# Parked is not stuck: whatever gives a ticker work wakes it, and a lost
# message is made up for by the next round of whoever still has news
# ----------------------------------------------------------------------
def _silent(cluster, for_s=0.1):
    return count_events(cluster.env, lambda: cluster.env.run(until=cluster.env.now + for_s)) == 0


def _primary(cluster):
    return cluster.controller.components[cluster.term.assignment(0).primary]


def _sends(cluster, method):
    """Names of the nodes that send ``method`` from now on, in order."""
    sources = []
    cluster.net.message_sent.subscribe(
        lambda msg, is_rpc: sources.append(msg.src) if msg.method == method else None)
    return sources


def test_append_completes_within_two_intervals_of_dropped_reports_healing():
    cluster = booted()
    env, interval = cluster.env, cluster.config.progress_interval
    primary = _primary(cluster).node
    deliver = primary.handlers["seq.report_progress"]
    lost = []
    primary.handle("seq.report_progress", lost.append)
    done = env.process(cluster.logbook(1).append(PAYLOAD))
    env.run(until=env.now + 3e-3)
    # Nothing acknowledged the reports, so every node backing the record
    # sent its vector once and again STALL_FETCH_DELAY later.
    assert done.is_alive and len(lost) == 3 * 2
    primary.handle("seq.report_progress", deliver)
    healed_at = env.now
    env.run_until(done, limit=healed_at + 0.1)
    # Up to STALL_FETCH_DELAY and an interval until the storage nodes'
    # next re-send, one interval until the primary's round, then the
    # quorum round and the broadcast.
    assert env.now - healed_at < STALL_FETCH_DELAY + 2 * interval + 4 * DEFAULT_RTT
    env.run(until=env.now + 2e-3)
    assert _silent(cluster)


def _reports(cluster):
    """``(sender, log_id, vector)`` of every ``seq.report_progress`` sent
    from now on, in order."""
    sent = []
    cluster.net.message_sent.subscribe(
        lambda msg, is_rpc: sent.append((msg.src, msg.payload["log_id"],
                                         tuple(sorted(msg.payload["vector"].items()))))
        if msg.method == "seq.report_progress" else None)
    return sent


def test_fault_free_reports_each_carry_a_new_vector():
    cluster = booted()
    sent = _reports(cluster)
    done = [0]

    def client(book):
        for _ in range(25):
            yield from book.append(PAYLOAD)
            done[0] += 1

    for engine in cluster.engines.values():
        cluster.env.process(client(cluster.logbook(1, engine=engine)))
    cluster.env.run(until=cluster.env.now + 0.5)
    assert done[0] == 100
    # The metalog is the acknowledgement: nobody repeats a vector it sent.
    assert len(sent) >= 100 and len(set(sent)) == len(sent)
    assert _silent(cluster)


def test_a_lost_report_is_sent_again_without_the_tail_clock():
    cluster = booted(num_storage_nodes=8)
    env, interval = cluster.env, cluster.config.progress_interval
    backers = cluster.term.assignment(0).shard_storage
    engine = cluster.engines["func-0"]
    # A node backing func-0's shard and no other: it reports only news of
    # the one record below.
    victim = next(name for name in backers[engine.name]
                  if all(name not in nodes for shard, nodes in backers.items()
                         if shard != engine.name))
    primary = _primary(cluster).node
    deliver = primary.handlers["seq.report_progress"]
    dropped = []

    def drop_the_victims_first(payload):
        if payload["storage"] == victim and not dropped:
            dropped.append(env.now)
        else:
            deliver(payload)

    primary.handle("seq.report_progress", drop_the_victims_first)

    def others():  # keep the log's other shards, and its followers, advancing
        while True:
            yield from cluster.logbook(2, engine=other).append(PAYLOAD)

    for other in cluster.engines.values():
        if other is not engine:
            env.process(others())
    done = env.process(cluster.logbook(1, engine=engine).append(PAYLOAD))
    env.run_until(done, limit=env.now + 0.1)
    # The victim sent its unchanged vector again once it had waited
    # STALL_FETCH_DELAY unordered, at its next round; then the primary's
    # round, the quorum round and the broadcast. The tail clock
    # (TAIL_FETCH_DELAY, with no advance) never ran out.
    assert dropped and env.now - dropped[0] < STALL_FETCH_DELAY + 2 * interval + 4 * DEFAULT_RTT


def _drop_one_entry(victim):
    """Lose the next ``metalog.entry`` broadcast to ``victim``."""
    apply = victim.node.handlers["metalog.entry"]

    def drop_one(payload):
        victim.node.handle("metalog.entry", apply)

    victim.node.handle("metalog.entry", drop_one)


def test_a_storage_node_that_missed_an_entry_alone_keeps_reporting():
    cluster = booted()
    env, book = cluster.env, cluster.logbook(1)
    victim = cluster.storage_nodes[0]
    _drop_one_entry(victim)
    cluster.drive(book.append(PAYLOAD), limit=env.now + 0.1)
    env.run(until=env.now + 2e-3)
    reporters = _sends(cluster, "seq.report_progress")
    primary = _primary(cluster)
    cuts = primary.entries_appended
    env.run(until=env.now + STALL_FETCH_DELAY + 1e-3)
    # It holds a record no entry it has applied orders, and says so again
    # every STALL_FETCH_DELAY; the primary has heard it all before and
    # stays parked.
    assert len(reporters) >= 1 and set(reporters) == {victim.name}
    assert primary.entries_appended == cuts
    # The next entry reveals the gap; the progress round that finds the
    # drain blocked for STALL_FETCH_DELAY fetches it, and once all is
    # ordered the loop drops its deadlines.
    interval = cluster.config.progress_interval
    cluster.drive(book.append(PAYLOAD), limit=env.now + 0.1)
    env.run(until=env.now + STALL_FETCH_DELAY + interval)
    assert victim.records_ordered == 2
    del reporters[:]
    assert _silent(cluster) and reporters == []


def test_a_storage_node_that_missed_the_newest_entry_polls_for_it():
    cluster = booted()
    env, interval = cluster.env, cluster.config.progress_interval
    victim = cluster.storage_nodes[0]
    _drop_one_entry(victim)
    fetchers = _sends(cluster, "seq.fetch_entries")
    cluster.drive(cluster.logbook(1).append(PAYLOAD), limit=env.now + 0.1)
    # No later entry reveals the gap: the victim's record waits with no
    # progress, so it polls the sequencers after TAIL_FETCH_DELAY.
    env.run(until=env.now + TAIL_FETCH_DELAY + 2 * interval)
    assert victim.records_ordered == 1 and fetchers == [victim.name]
    assert _silent(cluster)


def test_storage_node_reconfigured_after_a_crash_while_parked_reports_again():
    cluster = booted(num_function_nodes=1, num_storage_nodes=3)
    env, book = cluster.env, cluster.logbook(1)
    cluster.drive(book.append(PAYLOAD))
    env.run(until=env.now + 2e-3)
    assert _silent(cluster)
    victim = cluster.storage_nodes[0]
    victim.node.crash()
    env.run(until=env.now + 1e-3)
    victim.node.restart()
    reporters = _sends(cluster, "seq.report_progress")
    # Every record needs all three backers' reports to be ordered.
    cluster.drive(book.append(PAYLOAD), limit=env.now + 0.1)
    assert victim.name in reporters
    env.run(until=env.now + 2e-3)
    assert _silent(cluster)


def test_function_node_restarted_after_a_crash_polls_for_a_lost_entry():
    """The engine watchdog dies with its node; the restart brings it back,
    so an append whose ordering entry was lost still completes."""
    cluster = booted(num_function_nodes=2, num_storage_nodes=3)
    env, engine = cluster.env, cluster.engines["func-1"]
    engine.node.crash()
    env.run(until=env.now + 1e-3)
    engine.node.restart()
    primary, lost_for = _primary(cluster).name, 0.05
    cluster.net.set_link_fault(primary, engine.name, drop=1.0, symmetric=False)
    env.call_later(lost_for, lambda _: cluster.net.clear_link_faults(), None)
    started = env.now
    cluster.drive(cluster.logbook(1, engine=engine).append(PAYLOAD), limit=started + 2.0)
    assert env.now - started < lost_for + TAIL_FETCH_DELAY


def test_seal_while_the_primary_is_parked_ends_its_driver():
    cluster = booted()
    env = cluster.env
    env.run(until=env.now + 1e-3)
    primary = _primary(cluster)
    driver = primary._drivers[(1, 0)]
    assert driver.is_alive and _silent(cluster)
    client = cluster.function_nodes[0].node
    seal = cluster.net.rpc(client, primary.name, "seq.seal", {"term": 1, "log_id": 0})
    assert env.run_until(seal) == 0  # the sealed metalog's length
    env.run(until=env.now + 1e-3)
    assert not driver.is_alive and _silent(cluster)
