"""Tests for the garbage-collector functions (§5.5)."""

import pytest

from repro.libs.bokiflow import BokiFlowRuntime
from repro.libs.bokiflow.env import step_tag
from repro.libs.bokiqueue import BokiQueue
from repro.libs.bokistore import BokiStore, Transaction, object_tag
from repro.libs.gc import gc_deleted_objects, gc_queue, gc_workflow
from tests.libs.conftest import drive


def set_op(path, value):
    return {"op": "set", "path": path, "value": value}


class TestWorkflowGC:
    def test_completed_workflow_trimmed(self, cluster):
        runtime = BokiFlowRuntime(cluster)

        def child(env, arg):
            if False:
                yield
            return arg

        def body(env, arg):
            yield from env.write("t", "k", "v")                                # step 0
            yield from env.invoke_parallel([("gc-child", 1), ("gc-child", 2)])  # step 1
            return "ok"

        runtime.register_workflow("gc-child", child)
        runtime.register_workflow("wf", body)
        step_records = [(0, "")] + [(1, f"{s}{i}") for i in range(2) for s in ("pre", "post")]

        def flow():
            wf_id = runtime.new_workflow_id()
            yield from runtime.start_workflow("wf", book_id=1, workflow_id=wf_id)
            book = cluster.logbook(1)

            def leftover():
                found = []
                for step, suffix in step_records:
                    tag = step_tag(wf_id, step, suffix)
                    if (yield from book.read_next(tag=tag, min_seqnum=0)) is not None:
                        found.append((step, suffix))
                return found

            before = yield from leftover()
            trimmed = yield from gc_workflow(book, wf_id, steps=2)
            yield cluster.env.timeout(0.05)
            # Every step record, each fan-out branch's included, must be
            # gone from the index.
            return before, trimmed, (yield from leftover())

        before, trimmed, after = drive(cluster, flow())
        assert before == step_records
        assert trimmed is True
        assert after == []

    def test_incomplete_workflow_not_trimmed(self, cluster):
        runtime = BokiFlowRuntime(cluster)

        def flow():
            book = cluster.logbook(1)
            # Workflow never ran: no done marker.
            return (yield from gc_workflow(book, "never-ran", steps=1))

        assert drive(cluster, flow()) is False


class TestStoreGC:
    def test_deleted_object_trimmed(self, cluster):
        def flow():
            book = cluster.logbook(2)
            store = BokiStore(book)
            yield from store.update("x", [set_op("v", 1)])
            yield from store.delete_object("x")
            trimmed = yield from gc_deleted_objects(book, store, ["x"])
            yield cluster.env.timeout(0.05)
            leftover = yield from book.read_next(tag=object_tag("x"), min_seqnum=0)
            return trimmed, leftover

        trimmed, leftover = drive(cluster, flow())
        assert trimmed == ["x"]
        assert leftover is None

    def test_a_co_written_object_survives_gc(self, cluster):
        """A transaction's commit record carries both objects' tags, so
        trimming the deleted one leaves it for the other."""
        writer, reader = list(cluster.engines.values())[:2]

        def flow():
            book = cluster.logbook(2, engine=writer)
            store = BokiStore(book)
            txn = yield from Transaction(store).begin()
            for name in ("x", "y"):
                (yield from txn.get_object(name)).set("v", 1)
            assert (yield from txn.commit())
            yield from store.delete_object("x")
            assert (yield from gc_deleted_objects(book, store, ["x"])) == ["x"]
            yield cluster.env.timeout(0.05)
            view = yield from BokiStore(cluster.logbook(2, engine=reader)).get_object("y")
            return view.as_dict()

        assert drive(cluster, flow()) == {"v": 1}

    def test_live_object_not_trimmed(self, cluster):
        def flow():
            book = cluster.logbook(2)
            store = BokiStore(book)
            yield from store.update("x", [set_op("v", 1)])
            trimmed = yield from gc_deleted_objects(book, store, ["x"])
            view = yield from store.get_object("x")
            return trimmed, view.get("v")

        assert drive(cluster, flow()) == ([], 1)

    def test_recreated_object_not_trimmed(self, cluster):
        def flow():
            book = cluster.logbook(2)
            store = BokiStore(book)
            yield from store.update("x", [set_op("v", 1)])
            yield from store.delete_object("x")
            yield from store.update("x", [set_op("v", 2)])
            trimmed = yield from gc_deleted_objects(book, store, ["x"])
            view = yield from store.get_object("x")
            return trimmed, view.get("v")

        assert drive(cluster, flow()) == ([], 2)


class TestQueueGC:
    def test_drained_shard_fully_trimmed(self, cluster):
        def flow():
            q = BokiQueue(cluster.logbook(3), "q")
            producer, consumer = q.producer(), q.consumer(0)
            for i in range(3):
                yield from producer.push(i)
            for _ in range(3):
                yield from consumer.pop()
            trimmed = yield from gc_queue(q)
            yield cluster.env.timeout(0.05)
            # Queue still works after trim.
            yield from producer.push("post-gc")
            value = yield from consumer.pop()
            return trimmed, value

        trimmed, value = drive(cluster, flow())
        assert trimmed[0] is not None
        assert value == "post-gc"

    def test_pending_messages_survive_gc(self, cluster):
        def flow():
            q = BokiQueue(cluster.logbook(3), "q")
            producer, consumer = q.producer(), q.consumer(0)
            yield from producer.push("a")
            yield from producer.push("b")
            yield from consumer.pop()  # takes "a"; "b" still pending
            yield from gc_queue(q)
            yield cluster.env.timeout(0.05)
            return (yield from consumer.pop())

        assert drive(cluster, flow()) == "b"

    def test_empty_queue_gc_noop(self, cluster):
        def flow():
            q = BokiQueue(cluster.logbook(3), "q-empty")
            return (yield from gc_queue(q))

        assert drive(cluster, flow()) == [None]

    def test_gc_preserves_fifo_after_partial_drain(self, cluster):
        """GC must only trim at empty points: replay after GC still
        assigns pops the right pushes."""
        def flow():
            q = BokiQueue(cluster.logbook(3), "q")
            producer, consumer = q.producer(), q.consumer(0)
            yield from producer.push(1)
            yield from producer.push(2)
            yield from consumer.pop()  # 1
            yield from gc_queue(q)     # cannot trim past push(2)
            yield c_timeout(cluster)
            second = yield from consumer.pop()
            third = yield from consumer.pop()
            return second, third

        def c_timeout(c):
            return c.env.timeout(0.05)

        assert drive(cluster, flow()) == (2, None)
