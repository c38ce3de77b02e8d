"""The same seed twice in one process gives the same ids and results.

Transaction ids are numbered by their ``BokiStore``, tweet ids by the id
source the Retwis backends of a run share, and call ids by the function
node that runs the call — no id depends on what ran earlier in the
process.
"""

from repro.core.cluster import BokiCluster
from repro.libs.bokistore import BokiStore
from repro.libs.bokistore.store import WRITE_STREAM_TAG
from repro.workloads.retwis import RetwisBokiStore


def _run(seed):
    """A few nested invocations and a small Retwis run on a fresh
    cluster; returns every id they produced and every result."""
    cluster = BokiCluster(seed=seed, num_function_nodes=2, num_storage_nodes=3,
                          num_sequencer_nodes=3)
    cluster.boot()
    calls = []

    def child(ctx, arg):
        calls.append(ctx.call_id)
        yield cluster.env.timeout(0.001)
        return arg * 2

    def parent(ctx, arg):
        calls.append(ctx.call_id)
        return (yield from ctx.invoke("child", arg))

    cluster.register_function("child", child)
    cluster.register_function("parent", parent)
    backend = RetwisBokiStore(BokiStore(cluster.logbook(30)), num_users=4)
    store = backend.store

    def flow():
        results = []
        for i in range(3):
            results.append((yield from cluster.invoke("parent", i)))
        yield from backend.init_users()
        for u in (0, 1, 0):
            results.append((yield from backend.new_tweet(u, f"tweet by {u}")))
        for u in range(4):
            results.append((yield from backend.get_timeline(u)))
        txn_ids, seqnum = [], 0
        while True:
            record = yield from store.book.read_next(tag=WRITE_STREAM_TAG, min_seqnum=seqnum)
            if record is None:
                break
            if "txn_id" in record.data:
                txn_ids.append((record.data["kind"], record.data["txn_id"]))
            seqnum = record.seqnum + 1
        posts = []
        for u in range(4):
            view = yield from store.get_object(f"timeline:{u}")
            posts.append(view.get("posts"))
        return results, txn_ids, posts

    results, txn_ids, posts = cluster.drive(flow(), limit=600.0)
    return {"results": results, "txn_ids": txn_ids, "tweet_ids": posts, "call_ids": calls}


def test_same_seed_twice_in_one_process_gives_the_same_ids():
    first, second = _run(0), _run(0)
    assert first == second
    assert first["results"][:3] == [0, 2, 4] and all(first["results"][3:6])
    assert [txn_id for _, txn_id in first["txn_ids"]] == [1, 1, 2, 2, 3, 3]
    assert sorted({t for posts in first["tweet_ids"] for t in posts}) == [1, 2, 3]
    assert len(set(first["call_ids"])) == 6
