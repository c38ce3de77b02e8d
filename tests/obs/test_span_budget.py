"""Spans per operation, pinned exactly, beside the kernel-event budgets.

``tests/core/test_event_budget.py`` pins what an operation costs the
kernel; this file pins what it costs the tracer. Every scenario is a
seed-0 cluster driven by one client, so the tallies repeat exactly. A
span counts for a region when it started and finished inside it;
background work that belongs to no request (progress reports, metalog
broadcasts) must open none, which is why the idle cluster is pinned at
zero. A mismatch prints the span-name tally.

The second half pins the request trees themselves: an id-normalised
digest of every trace a request, a quorum round or a stray RPC roots.
First recorded at the commit before context-free one-way messages
stopped opening ``handle:`` root spans (the trees that remained were the
same trees); re-recorded when the cluster's tickers started parking,
which moved every span's times (un-sent reports draw no jitter) and the
number of requests and quorum rounds that fit the window, but no tally
above.
"""

import hashlib
import json
from collections import Counter

from repro.core.cluster import BokiCluster
from repro.obs.critical_path import AttributionAggregate
from repro.workloads.harness import run_closed_loop
from tests.core.test_event_budget import PAYLOAD, _reader, pick_engine
from tests.obs.test_trace_propagation import make_net

def traced(**kwargs) -> BokiCluster:
    cluster = BokiCluster(seed=0, **kwargs)
    cluster.enable_observability()
    cluster.boot()
    cluster.env.run(until=cluster.env.now + 0.001)  # boot's last messages land
    return cluster


def tally(cluster, run) -> Counter:
    """Names of the spans that started and finished while ``run()``
    executed; printed, which pytest shows when the assert that follows
    fails."""
    spans, t0 = cluster.obs.tracer.spans, cluster.env.now
    before = len(spans)
    run()
    names = Counter(s.name for s in spans[before:] if s.start >= t0)
    print(json.dumps(dict(sorted(names.items())), indent=1))
    return names


def test_one_sequential_append():
    cluster = traced(num_function_nodes=1, num_storage_nodes=3)
    book = cluster.logbook(1)
    cluster.drive(book.append("warm"))
    # The append, its replication to 3 storage nodes, and the quorum round
    # (2 secondaries) that orders it. Neither the progress reports that
    # trigger the round nor the broadcast of its entry are spans.
    assert tally(cluster, lambda: cluster.drive(book.append(PAYLOAD))) == {
        "engine.append": 1, "engine.replicate": 1,
        "rpc:storage.replicate": 3, "handle:storage.replicate": 3,
        "seq.quorum": 1, "rpc:seq.replicate": 2, "handle:seq.replicate": 2,
    }


def test_one_quorum_round():
    cluster = traced(num_function_nodes=1, num_storage_nodes=3)
    cluster.drive(cluster.logbook(1).append(PAYLOAD))
    quorum = [s for s in cluster.obs.tracer.spans if s.name == "seq.quorum"][-1]
    tree = [s for s in cluster.obs.tracer.spans if s.trace_id == quorum.trace_id]
    assert Counter(s.name for s in tree) == {
        "seq.quorum": 1, "rpc:seq.replicate": 2, "handle:seq.replicate": 2,
    }, Counter(s.name for s in tree)
    assert quorum.parent_id is None and quorum.attrs["acks"] == 3


def test_one_cached_read():
    cluster = traced()
    read = _reader(cluster)
    cluster.drive(read())  # the first read fills the cache
    assert tally(cluster, lambda: cluster.drive(read())) == {
        "engine.read_local": 1, "engine.cache_hit": 1,
    }


def test_one_cached_range_read():
    cluster = traced()
    book = cluster.logbook(1, engine=pick_engine(cluster, 1))
    for _ in range(3):
        cluster.drive(book.append(PAYLOAD, tags=[7]))
    cluster.drive(book.read_range(tag=7))  # the first read fills the cache
    # A range read is the same engine read as a point read, with no limit:
    # one span for the route, one cache lookup per record.
    assert tally(cluster, lambda: cluster.drive(book.read_range(tag=7))) == {
        "engine.read_local": 1, "engine.cache_hit": 3,
    }


def test_one_storage_read():
    cluster = traced()
    read = _reader(cluster, drop=True)
    assert tally(cluster, lambda: cluster.drive(read())) == {
        "engine.read_local": 1, "engine.cache_miss": 1,
        "rpc:storage.read": 1, "handle:storage.read": 1, "storage.media_read": 1,
    }


def test_one_remote_read():
    cluster = traced(index_engines_per_log=1)
    read = _reader(cluster, remote=True)
    # The index engine that is asked misses its cache and reads storage.
    assert tally(cluster, lambda: cluster.drive(read())) == {
        "engine.read_remote": 1, "rpc:engine.read": 1, "handle:engine.read": 1,
        "engine.read_local": 1, "engine.cache_miss": 1,
        "rpc:storage.read": 1, "handle:storage.read": 1, "storage.media_read": 1,
    }


def test_one_noop_invocation():
    cluster = traced()

    def noop(ctx, arg):
        return arg
        yield  # a generator function, like every registered handler

    cluster.register_function("noop", noop)
    cluster.drive(cluster.invoke("noop", 0))
    assert tally(cluster, lambda: cluster.drive(cluster.invoke("noop", 1))) == {
        "rpc:faas.invoke": 1, "handle:faas.invoke": 1, "gateway.invoke": 1,
        "rpc:faas.exec": 1, "handle:faas.exec": 1, "fn:noop": 1,
    }


def test_idle_cluster_opens_no_span():
    cluster = traced()
    # 100 idle virtual milliseconds: nothing is sent at all.
    assert tally(cluster, lambda: cluster.env.run(until=cluster.env.now + 0.1)) == {}


def test_rpc_from_a_context_free_send_roots_its_own_trace():
    env, net, obs, (a, b, c) = make_net(num_nodes=3)
    c.handle("fetch", lambda payload: payload * 2)
    got = []

    def notify(payload):
        got.append((yield net.rpc(b, c, "fetch", payload)))

    b.handle("notify", notify)
    net.send(a, b, "notify", 21)  # from no process, inside no trace
    env.run(until=1.0)
    assert got == [42]
    by_name = {s.name: s for s in obs.tracer.spans}
    assert sorted(by_name) == ["handle:fetch", "rpc:fetch"]
    rpc, handle = by_name["rpc:fetch"], by_name["handle:fetch"]
    assert rpc.parent_id is None and rpc.node == "n1"
    assert handle.parent_id == rpc.span_id and handle.trace_id == rpc.trace_id
    ids = {s.span_id for s in obs.tracer.spans}
    assert all(s.parent_id is None or s.parent_id in ids for s in obs.tracer.spans)


# ----------------------------------------------------------------------
# Request trees are the same trees
# ----------------------------------------------------------------------
#: Both computed by this module's own functions, once the closed loop's
#: warmup became a constant (0.05 s): the run is longer, so this is a
#: longer sample path, and the tree before that change gives the same two
#: values for it (until then 52bd8cec… / 611d9b22… with 405 requests and
#: 94 quorum rounds, from a 0.01 s warmup; before storage nodes stopped
#: re-sending unchanged progress vectors, a8f1c5f7… / 7b070a0a… with 398
#: and 85; before the tickers started parking at 1ae9b27, d7de14bd… /
#: 3b0d6555… with 401 and 94).
REQUEST_TREES_SHA256 = "c2eb6393243514c6919413806dd8f002685a8080594c30df3df5be40974744bd"
ATTRIBUTION_SHA256 = "6e086cf8c61c7f5a69e6ed8bb77dac503f4d6e90b1136c4bb0b5157e38a5e046"


def mixed_run():
    """Appends, reads and invocations on 4F/8S/3Q, every request traced."""
    cluster = BokiCluster(num_function_nodes=4, num_storage_nodes=8,
                          num_sequencer_nodes=3, seed=3)
    obs = cluster.enable_observability()
    cluster.boot()
    engines = list(cluster.engines.values())

    def touch(ctx, arg):
        book = cluster.logbook_for(ctx)
        seqnum = yield from book.append(arg, tags=[5])
        record = yield from book.read_next(tag=5, min_seqnum=seqnum)
        return record.seqnum

    cluster.register_function("touch", touch)

    def make_op(client, _measure):
        book = cluster.logbook(1 + client % 2, engine=engines[client % len(engines)])
        kind = ("append", "read", "invoke")[client % 3]
        tag = client + 1  # tag 0 is the implicit all-records tag
        last = []

        def op():
            if kind == "invoke":
                yield from cluster.invoke("touch", f"c{client}", book_id=9)
            elif kind == "append" or not last:
                last[:] = [(yield from book.append(PAYLOAD, tags=[tag]))]
            else:
                yield from book.read_next(tag=tag, min_seqnum=last[0])
                last.clear()
        return op

    result = run_closed_loop(cluster.env, make_op, num_clients=9, duration=0.03, obs=obs)
    assert result.completed > 100 and result.errors == 0
    return obs.tracer.spans


def request_trees(spans):
    """Every trace whose root is not a ``handle:`` span, as JSON-ready
    rows in (start, id) order with ids replaced by positions: a row's
    parent is the index of its parent's row within the trace (None for
    the root, -1 for a parent that never finished)."""
    by_trace = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    trees = []
    for trace_id in sorted(by_trace):
        tspans = sorted(by_trace[trace_id], key=lambda s: (s.start, s.span_id))
        if any(s.parent_id is None and s.name.startswith("handle:") for s in tspans):
            continue
        position = {s.span_id: i for i, s in enumerate(tspans)}
        trees.append([
            [s.name, s.node, s.kind, s.start, s.end, s.status,
             sorted((k, repr(v)) for k, v in s.attrs.items()),
             None if s.parent_id is None else position.get(s.parent_id, -1)]
            for s in tspans
        ])
    return trees


def sha256(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_request_trees_are_the_same_trees():
    spans = mixed_run()
    trees = request_trees(spans)
    roots = Counter(tree[0][0] for tree in trees)
    # Two of boot's coordinator RPCs are issued outside any trace.
    assert roots == {"request": 809, "seq.quorum": 191,
                     "rpc:coord.exists": 1, "rpc:coord.create": 1}, roots
    assert sha256(trees) == REQUEST_TREES_SHA256, roots

    aggregate = AttributionAggregate()
    aggregate.add_spans(spans)
    doc = aggregate.to_dict()
    assert not any(name.startswith("handle:") for name in doc["roots"]), doc["roots"]
    assert doc["traces"] == sum(doc["roots"].values()) == len(trees)
    del doc["traces"]
    assert sha256(doc) == ATTRIBUTION_SHA256, doc
