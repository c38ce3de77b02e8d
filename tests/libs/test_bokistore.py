"""Tests for BokiStore: durable objects, transactions, aux replay (§5.2/5.4)."""

import pytest

from repro.libs.bokistore import BokiStore, Transaction
from tests.libs.conftest import drive


def make_store(cluster, book_id=9, fill_aux=True, engine=None):
    return BokiStore(cluster.logbook(book_id, engine=engine), fill_aux=fill_aux)


def set_op(path, value):
    return {"op": "set", "path": path, "value": value}


class TestObjects:
    def test_create_and_read(self, cluster):
        store = make_store(cluster)

        def flow():
            yield from store.update("x", [set_op("b", "foo")])
            view = yield from store.get_object("x")
            return view.get("b"), view.exists

        assert drive(cluster, flow()) == ("foo", True)

    def test_missing_object(self, cluster):
        store = make_store(cluster)

        def flow():
            view = yield from store.get_object("ghost")
            return view.exists, view.get("anything", "dflt")

        assert drive(cluster, flow()) == (False, "dflt")

    def test_updates_accumulate(self, cluster):
        store = make_store(cluster)

        def flow():
            yield from store.update("x", [set_op("a", 1)])
            yield from store.update("x", [set_op("b", 2)])
            yield from store.update("x", [{"op": "inc", "path": "a", "value": 10}])
            view = yield from store.get_object("x")
            return view.as_dict()

        assert drive(cluster, flow()) == {"a": 11, "b": 2}

    def test_objects_isolated(self, cluster):
        store = make_store(cluster)

        def flow():
            yield from store.update("x", [set_op("v", "xv")])
            yield from store.update("y", [set_op("v", "yv")])
            x = yield from store.get_object("x")
            y = yield from store.get_object("y")
            return x.get("v"), y.get("v")

        assert drive(cluster, flow()) == ("xv", "yv")

    def test_snapshot_read_at_position(self, cluster):
        store = make_store(cluster)

        def flow():
            s1 = yield from store.update("x", [set_op("v", 1)])
            yield from store.update("x", [set_op("v", 2)])
            old = yield from store.get_object("x", at=s1)
            new = yield from store.get_object("x")
            return old.get("v"), new.get("v")

        assert drive(cluster, flow()) == (1, 2)

    def test_delete_object(self, cluster):
        store = make_store(cluster)

        def flow():
            yield from store.update("x", [set_op("v", 1)])
            yield from store.delete_object("x")
            view = yield from store.get_object("x")
            return view.exists

        assert drive(cluster, flow()) is False

    def test_recreate_after_delete(self, cluster):
        store = make_store(cluster)

        def flow():
            yield from store.update("x", [set_op("v", 1)])
            yield from store.delete_object("x")
            yield from store.update("x", [set_op("v", 2)])
            view = yield from store.get_object("x")
            return view.as_dict()

        assert drive(cluster, flow()) == {"v": 2}

    def test_view_is_snapshot_not_alias(self, cluster):
        store = make_store(cluster)

        def flow():
            yield from store.update("x", [set_op("v", [1])])
            view = yield from store.get_object("x")
            view.as_dict()["v"].append(99)
            again = yield from store.get_object("x")
            return again.get("v")

        assert drive(cluster, flow()) == [1]


class TestConcurrentWriters:
    def test_interleaved_updates_never_poison_aux_views(self, cluster):
        """Two clients increment disjoint map slots concurrently. A writer
        whose read-append window was interleaved must NOT cache its
        (stale-based) view — readers must see every update (regression
        test for the lost-update-view bug)."""
        from repro.libs.bokistore import BokiStore

        stores = [
            BokiStore(cluster.logbook(44, engine=c))
            for c in list(cluster.engines.values())[:2]
        ]

        def writer(store, key_prefix, count):
            for i in range(count):
                yield from store.update(
                    "shared-map",
                    [{"op": "set", "path": f"data.{key_prefix}{i}", "value": i}],
                )

        p1 = cluster.env.process(writer(stores[0], "a", 6))
        p2 = cluster.env.process(writer(stores[1], "b", 6))
        cluster.env.run_until(p1, limit=300.0)
        cluster.env.run_until(p2, limit=300.0)

        def check():
            view = yield from stores[0].get_object("shared-map")
            return view.get("data")

        data = drive(cluster, check())
        assert len(data) == 12  # every key from both writers visible


class TestAuxReplay:
    def test_aux_disabled_still_correct(self, cluster):
        store = make_store(cluster, fill_aux=False)

        def flow():
            for i in range(5):
                yield from store.update("x", [set_op("v", i)])
            view = yield from store.get_object("x")
            return view.get("v")

        assert drive(cluster, flow()) == 4

    def test_aux_reduces_replay(self, cluster):
        """With view caching, a second reader replays far fewer records."""
        store = make_store(cluster)

        def write_many():
            for i in range(10):
                yield from store.update("x", [set_op("v", i)])

        drive(cluster, write_many())

        def read_once():
            view = yield from store.get_object("x")
            return view.get("v")

        before = store.replayed_records
        assert drive(cluster, read_once()) == 9
        # The writer already cached views, so the read replays ~0 records.
        assert store.replayed_records - before <= 1

    def test_no_aux_means_full_replay(self, cluster):
        store = make_store(cluster, fill_aux=False)
        store.aux_get = lambda record: iter(())  # pretend nothing cached

        def never_cached(record):
            if False:
                yield
            return None

        store.aux_get = never_cached

        def noop_put(record, aux):
            if False:
                yield
            return None

        store.aux_put = noop_put

        def flow():
            for i in range(8):
                yield from store.update("x", [set_op("v", i)])
            before = store.replayed_records
            view = yield from store.get_object("x")
            return view.get("v"), store.replayed_records - before

        value, replayed = drive(cluster, flow())
        assert value == 7
        assert replayed == 8  # every record replayed


class TestTransactions:
    def test_commit_visible(self, cluster):
        store = make_store(cluster)

        def flow():
            yield from store.update("acct", [set_op("balance", 100)])
            txn = yield from Transaction(store).begin()
            acct = yield from txn.get_object("acct")
            acct.inc("balance", -30)
            ok = yield from txn.commit()
            view = yield from store.get_object("acct")
            return ok, view.get("balance")

        assert drive(cluster, flow()) == (True, 70)

    def test_cross_object_transaction(self, cluster):
        store = make_store(cluster)

        def flow():
            yield from store.update("alice", [set_op("balance", 100)])
            yield from store.update("bob", [set_op("balance", 0)])
            txn = yield from Transaction(store).begin()
            alice = yield from txn.get_object("alice")
            bob = yield from txn.get_object("bob")
            alice.inc("balance", -10)
            bob.inc("balance", 10)
            ok = yield from txn.commit()
            a = yield from store.get_object("alice")
            b = yield from store.get_object("bob")
            return ok, a.get("balance"), b.get("balance")

        assert drive(cluster, flow()) == (True, 90, 10)

    def test_conflicting_write_aborts_txn(self, cluster):
        """A write landing in the conflict window aborts the commit."""
        store = make_store(cluster)

        def flow():
            yield from store.update("x", [set_op("v", 0)])
            txn = yield from Transaction(store).begin()
            obj = yield from txn.get_object("x")
            obj.set("v", "txn-value")
            # Interleave a normal write before the commit.
            yield from store.update("x", [set_op("v", "interloper")])
            ok = yield from txn.commit()
            view = yield from store.get_object("x")
            return ok, view.get("v")

        assert drive(cluster, flow()) == (False, "interloper")

    def test_figure8_scenario(self, cluster):
        """TxnB fails due to TxnA's conflicting commit; TxnC succeeds
        despite overlapping TxnB's write set, because TxnB failed."""
        store = make_store(cluster)

        def flow():
            # TxnA start | write Z | TxnB start | TxnA commit {X, Y} |
            # TxnC start | TxnB commit {Y, Z} | TxnC commit {X, Z}
            txn_a = yield from Transaction(store).begin()
            yield from store.update("Z", [set_op("v", "normal")])
            txn_b = yield from Transaction(store).begin()
            a_x = yield from txn_a.get_object("X")
            a_y = yield from txn_a.get_object("Y")
            a_x.set("v", "A")
            a_y.set("v", "A")
            ok_a = yield from txn_a.commit()
            txn_c = yield from Transaction(store).begin()
            b_y = yield from txn_b.get_object("Y")
            b_z = yield from txn_b.get_object("Z")
            b_y.set("v", "B")
            b_z.set("v", "B")
            ok_b = yield from txn_b.commit()
            c_x = yield from txn_c.get_object("X")
            c_z = yield from txn_c.get_object("Z")
            c_x.set("v", "C")
            c_z.set("v", "C")
            ok_c = yield from txn_c.commit()
            return ok_a, ok_b, ok_c

        assert drive(cluster, flow()) == (True, False, True)

    def test_snapshot_isolation_reads(self, cluster):
        """Reads inside a txn see the state at txn_start, not later writes."""
        store = make_store(cluster)

        def flow():
            yield from store.update("x", [set_op("v", "initial")])
            txn = yield from Transaction(store).begin()
            yield from store.update("x", [set_op("v", "later")])
            obj = yield from txn.get_object("x")
            return obj.get("v")

        assert drive(cluster, flow()) == "initial"

    def test_readonly_txn_consistent_snapshot(self, cluster):
        store = make_store(cluster)

        def flow():
            yield from store.update("a", [set_op("v", 1)])
            yield from store.update("b", [set_op("v", 1)])
            txn = yield from Transaction(store, readonly=True).begin()
            a = yield from txn.get_object("a")
            yield from store.update("b", [set_op("v", 2)])
            b = yield from txn.get_object("b")
            ok = yield from txn.commit()
            return a.get("v"), b.get("v"), ok

        assert drive(cluster, flow()) == (1, 1, True)

    def test_readonly_txn_cannot_write(self, cluster):
        store = make_store(cluster)

        def flow():
            txn = yield from Transaction(store, readonly=True).begin()
            obj = yield from txn.get_object("x")
            obj.set("v", 1)

        with pytest.raises(RuntimeError):
            drive(cluster, flow())

    def test_empty_txn_commits(self, cluster):
        store = make_store(cluster)

        def flow():
            txn = yield from Transaction(store).begin()
            yield from txn.get_object("x")
            return (yield from txn.commit())

        assert drive(cluster, flow()) is True

    def test_aborted_txn_invisible(self, cluster):
        store = make_store(cluster)

        def flow():
            yield from store.update("x", [set_op("v", "keep")])
            txn = yield from Transaction(store).begin()
            obj = yield from txn.get_object("x")
            obj.set("v", "discard")
            yield from txn.abort()
            view = yield from store.get_object("x")
            return view.get("v")

        assert drive(cluster, flow()) == "keep"

    def test_non_overlapping_txns_both_commit(self, cluster):
        store = make_store(cluster)

        def flow():
            t1 = yield from Transaction(store).begin()
            t2 = yield from Transaction(store).begin()
            o1 = yield from t1.get_object("x")
            o2 = yield from t2.get_object("y")
            o1.set("v", 1)
            o2.set("v", 2)
            ok1 = yield from t1.commit()
            ok2 = yield from t2.commit()
            return ok1, ok2

        assert drive(cluster, flow()) == (True, True)

    def test_txn_buffered_read_your_writes(self, cluster):
        store = make_store(cluster)

        def flow():
            txn = yield from Transaction(store).begin()
            obj = yield from txn.get_object("x")
            obj.set("v", 5)
            return obj.get("v")

        assert drive(cluster, flow()) == 5
