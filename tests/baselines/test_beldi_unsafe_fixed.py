"""Tests for the Beldi / unsafe workflow baselines and fixed sharding."""

import pytest

from repro.baselines.beldi import BeldiRuntime
from repro.baselines.dynamodb import DynamoDBService
from repro.baselines.fixed_sharding import fixed_sharding_logbook
from repro.baselines.unsafe import UnsafeRuntime
from repro.core import BokiCluster
from repro.core.types import MAX_SEQNUM
from repro.libs.bokiflow import WorkflowTxn


@pytest.fixture
def cluster():
    c = BokiCluster(num_function_nodes=4, index_engines_per_log=4)
    DynamoDBService(c.env, c.net, c.streams)
    c.boot()
    return c


def drive(cluster, gen, limit=600.0):
    return cluster.drive(gen, limit=limit)


class TestBeldi:
    def test_write_read_roundtrip(self, cluster):
        rt = BeldiRuntime(cluster)

        def body(env, arg):
            yield from env.write("t", "k", "v")
            return (yield from env.read("t", "k"))

        rt.register_workflow("wf", body)

        def flow():
            return (yield from rt.start_workflow("wf"))

        assert drive(cluster, flow()) == "v"

    def test_exactly_once_on_reexecution(self, cluster):
        rt = BeldiRuntime(cluster)
        crashes = {"armed": True}

        class Crash(Exception):
            pass

        def body(env, arg):
            current = (yield from env.read("t", "ctr")) or 0
            yield from env.write("t", "ctr", current + 1)
            if crashes["armed"]:
                crashes["armed"] = False
                raise Crash()
            return (yield from env.read("t", "ctr"))

        rt.register_workflow("wf", body)

        def flow():
            wf_id = rt.new_workflow_id()
            try:
                yield from rt.start_workflow("wf", workflow_id=wf_id)
            except Crash:
                pass
            return (yield from rt.start_workflow("wf", workflow_id=wf_id))

        assert drive(cluster, flow()) == 1

    def test_completed_workflow_replays_result(self, cluster):
        rt = BeldiRuntime(cluster)
        runs = {"n": 0}

        def body(env, arg):
            runs["n"] += 1
            yield from env.write("t", "k", runs["n"])
            return runs["n"]

        rt.register_workflow("wf", body)

        def flow():
            wf_id = rt.new_workflow_id()
            a = yield from rt.start_workflow("wf", workflow_id=wf_id)
            b = yield from rt.start_workflow("wf", workflow_id=wf_id)
            return a, b

        assert drive(cluster, flow()) == (1, 1)
        assert runs["n"] == 1

    def test_invoke_child(self, cluster):
        rt = BeldiRuntime(cluster)

        def child(env, arg):
            yield from env.write("t", "c", arg)
            return arg * 2

        def parent(env, arg):
            return (yield from env.invoke("child", 10))

        rt.register_workflow("child", child)
        rt.register_workflow("parent", parent)

        def flow():
            return (yield from rt.start_workflow("parent"))

        assert drive(cluster, flow()) == 20

    def test_locks_mutual_exclusion(self, cluster):
        rt = BeldiRuntime(cluster)
        order = []

        def body(env, arg):
            txn = WorkflowTxn(env)
            ok = yield from txn.acquire([("t", "res")])
            if not ok:
                return "blocked"
            order.append(arg)
            txn.write("t", "res", arg)
            yield from txn.commit()
            return "done"

        rt.register_workflow("wf", body)

        def flow():
            a = yield from rt.start_workflow("wf", "first")
            b = yield from rt.start_workflow("wf", "second")
            return a, b

        assert drive(cluster, flow()) == ("done", "done")

    def test_beldi_slower_than_bokiflow(self, cluster):
        """The structural claim behind Figure 11c: the same workflow costs
        more wall-clock on Beldi (DynamoDB round trips per log append)."""
        from repro.libs.bokiflow import BokiFlowRuntime

        beldi, boki = BeldiRuntime(cluster), BokiFlowRuntime(cluster)

        def body(env, arg):
            for i in range(3):
                yield from env.write("t", f"k{i}", i)
            return "ok"

        beldi.register_workflow("wf-beldi", body)
        boki.register_workflow("wf-boki", body)

        def timed(name):
            start = cluster.env.now
            yield from (beldi if "beldi" in name else boki).start_workflow(name, book_id=2)
            return cluster.env.now - start

        beldi_time = drive(cluster, timed("wf-beldi"))
        boki_time = drive(cluster, timed("wf-boki"))
        assert beldi_time > boki_time


class TestUnsafe:
    def test_write_read(self, cluster):
        rt = UnsafeRuntime(cluster)

        def body(env, arg):
            yield from env.write("t", "k", "v")
            return (yield from env.read("t", "k"))

        rt.register_workflow("wf", body)

        def flow():
            return (yield from rt.start_workflow("wf"))

        assert drive(cluster, flow()) == "v"

    def test_reexecution_duplicates_effects(self, cluster):
        """The unsafe baseline demonstrates the problem: re-execution
        double-applies (no exactly-once)."""
        rt = UnsafeRuntime(cluster)

        def body(env, arg):
            current = (yield from env.read("t", "ctr")) or 0
            yield from env.write("t", "ctr", current + 1)
            return current + 1

        rt.register_workflow("wf", body)

        def flow():
            wf_id = rt.new_workflow_id()
            yield from rt.start_workflow("wf", workflow_id=wf_id)
            return (yield from rt.start_workflow("wf", workflow_id=wf_id))

        assert drive(cluster, flow()) == 2  # duplicated, unlike Beldi/BokiFlow

    def test_faster_than_bokiflow(self, cluster):
        from repro.libs.bokiflow import BokiFlowRuntime

        unsafe, boki = UnsafeRuntime(cluster), BokiFlowRuntime(cluster)

        def body(env, arg):
            yield from env.write("t", "k", 1)
            return "ok"

        unsafe.register_workflow("wf-unsafe", body)
        boki.register_workflow("wf-boki2", body)

        def timed(rt, name):
            start = cluster.env.now
            yield from rt.start_workflow(name, book_id=3)
            return cluster.env.now - start

        unsafe_time = drive(cluster, timed(unsafe, "wf-unsafe"))
        boki_time = drive(cluster, timed(boki, "wf-boki2"))
        assert unsafe_time < boki_time


class TestFixedSharding:
    def test_roundtrip(self, cluster):
        def flow():
            book = fixed_sharding_logbook(cluster, 42)
            s = yield from book.append("data", tags=[5])
            record = yield from book.read_next(tag=5, min_seqnum=0)
            return record.data

        assert drive(cluster, flow()) == "data"

    def test_all_appends_from_any_engine_land_on_home_shard(self, cluster):
        def flow():
            seqnums = []
            for engine_name in list(cluster.engines):
                book = fixed_sharding_logbook(
                    cluster, 42, engine=cluster.engine_of(engine_name)
                )
                seqnums.append((yield from book.append(f"from-{engine_name}")))
            return seqnums

        drive(cluster, flow())
        # All records of book 42 carry the home engine's shard.
        home = fixed_sharding_logbook(cluster, 42).home_engine
        index_engine = next(e for e in cluster.engines.values() if e.indexes(0))
        index = index_engine.indices[0]
        shards = {index.shard_of(s) for s in index.query(42, 0, 0, MAX_SEQNUM, None, False)}
        assert shards == {home}

    def test_different_books_different_homes(self, cluster):
        homes = {
            fixed_sharding_logbook(cluster, b).home_engine for b in range(50)
        }
        assert len(homes) == len(cluster.engines)
