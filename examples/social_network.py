"""BokiStore example: durable objects with cross-object transactions (§5.2).

Run:  python examples/social_network.py

A miniature social network on BokiStore: JSON user objects, a follower
graph, and an atomic "transfer karma" transaction across two objects —
the capability Cloudflare Durable Objects lacks (§2.1). Also demonstrates
snapshot-isolated read-only transactions and the Figure 8 conflict rule.
"""

from repro.core import BokiCluster
from repro.libs.bokistore import BokiStore, Transaction
from repro.libs.gc import gc_deleted_objects


def main():
    cluster = BokiCluster(num_function_nodes=4, num_storage_nodes=3)
    cluster.boot()

    def scenario():
        store = BokiStore(cluster.logbook(book_id=11))

        # Create durable JSON objects (Figure 6c style).
        for name, karma in [("alice", 120), ("bob", 15)]:
            yield from store.update(name, [
                {"op": "set", "path": "profile.name", "value": name},
                {"op": "set", "path": "karma", "value": karma},
                {"op": "make_array", "path": "followers"},
            ])
        yield from store.update("bob", [
            {"op": "push", "path": "followers", "value": "alice"},
        ])

        bob = yield from store.get_object("bob")
        print(f"bob: karma={bob.get('karma')}, followers={bob.get('followers')}")

        # Cross-object transaction: transfer karma atomically.
        txn = yield from Transaction(store).begin()
        alice = yield from txn.get_object("alice")
        bob = yield from txn.get_object("bob")
        if alice.get("karma") >= 50:
            alice.inc("karma", -50)
            bob.inc("karma", 50)
        committed = yield from txn.commit()
        print(f"karma transfer committed: {committed}")

        # Read-only transaction: a consistent snapshot of both objects.
        snap = yield from Transaction(store, readonly=True).begin()
        a = yield from snap.get_object("alice")
        b = yield from snap.get_object("bob")
        yield from snap.commit()
        print(f"snapshot: alice={a.get('karma')}, bob={b.get('karma')}")
        assert a.get("karma") + b.get("karma") == 135

        # Conflicts: a write inside another txn's window aborts it (Fig. 8).
        txn2 = yield from Transaction(store).begin()
        victim = yield from txn2.get_object("alice")
        victim.inc("karma", 1000)
        yield from store.update("alice", [{"op": "inc", "path": "karma", "value": -1}])
        committed = yield from txn2.commit()
        print(f"conflicting transaction committed: {committed} (expected False)")
        assert committed is False

        final = yield from store.get_object("alice")
        print(f"alice final karma: {final.get('karma')}")

        # Closing an account deletes the object; the collector function
        # then reclaims its records through logTrim (§5.5).
        yield from store.delete_object("bob")
        trimmed = yield from gc_deleted_objects(store.book, store, ["bob"])
        print(f"bob closed his account; GC trimmed the records of {trimmed}")
        assert trimmed == ["bob"]

    cluster.drive(scenario())
    print("durable objects + transactions over one shared log.")


if __name__ == "__main__":
    main()
