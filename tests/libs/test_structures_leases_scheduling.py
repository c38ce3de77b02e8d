"""Tests for durable data structures, shard leases, locality scheduling."""

import pytest

from repro.faas import FunctionContext
from repro.faas.scheduling import LocalityScheduler, enable_locality_scheduling
from repro.libs.bokiflow import BokiFlowRuntime, WorkflowEnv
from repro.libs.bokiqueue import BokiQueue
from repro.libs.bokiqueue.leases import acquire_shard, acquire_shard_wait
from repro.libs.bokistore import BokiStore
from repro.libs.bokistore.structures import (
    DurableCounter,
    DurableList,
    DurableMap,
    DurableRegister,
)
from tests.libs.conftest import drive


def make_store(cluster, book_id=25):
    return BokiStore(cluster.logbook(book_id))


class TestDurableCounter:
    def test_starts_at_zero(self, cluster):
        counter = DurableCounter(make_store(cluster), "hits")

        def flow():
            return (yield from counter.get())

        assert drive(cluster, flow()) == 0

    def test_add_and_get(self, cluster):
        counter = DurableCounter(make_store(cluster), "hits")

        def flow():
            yield from counter.increment()
            yield from counter.add(10)
            yield from counter.decrement()
            return (yield from counter.get())

        assert drive(cluster, flow()) == 10

    def test_two_handles_share_state(self, cluster):
        store = make_store(cluster)
        a = DurableCounter(store, "shared")
        b = DurableCounter(BokiStore(cluster.logbook(25)), "shared")

        def flow():
            yield from a.add(5)
            return (yield from b.get())

        assert drive(cluster, flow()) == 5


class TestDurableRegister:
    def test_set_get(self, cluster):
        reg = DurableRegister(make_store(cluster), "config")

        def flow():
            yield from reg.set({"mode": "on"})
            return (yield from reg.get())

        assert drive(cluster, flow()) == {"mode": "on"}

    def test_default(self, cluster):
        reg = DurableRegister(make_store(cluster), "empty")

        def flow():
            return (yield from reg.get("fallback"))

        assert drive(cluster, flow()) == "fallback"

    def test_cas_success_and_failure(self, cluster):
        reg = DurableRegister(make_store(cluster), "cas")

        def flow():
            yield from reg.set("a")
            ok1 = yield from reg.compare_and_set("a", "b")
            ok2 = yield from reg.compare_and_set("a", "c")  # stale expected
            final = yield from reg.get()
            return ok1, ok2, final

        assert drive(cluster, flow()) == (True, False, "b")


class TestDurableMap:
    def test_put_get_delete(self, cluster):
        m = DurableMap(make_store(cluster), "users")

        def flow():
            yield from m.put("alice", 1)
            yield from m.put("bob", 2)
            yield from m.delete("alice")
            has_alice = yield from m.contains("alice")
            bob = yield from m.get("bob")
            return has_alice, bob

        assert drive(cluster, flow()) == (False, 2)

    def test_keys_and_items(self, cluster):
        m = DurableMap(make_store(cluster), "kv")

        def flow():
            yield from m.put("z", 26)
            yield from m.put("a", 1)
            keys = yield from m.keys()
            items = yield from m.items()
            size = yield from m.size()
            return keys, items, size

        assert drive(cluster, flow()) == (["a", "z"], [("a", 1), ("z", 26)], 2)

    def test_dotted_keys_safe(self, cluster):
        m = DurableMap(make_store(cluster), "dotty")

        def flow():
            yield from m.put("a.b.c", "nested-looking")
            value = yield from m.get("a.b.c")
            keys = yield from m.keys()
            return value, keys

        assert drive(cluster, flow()) == ("nested-looking", ["a.b.c"])


class TestDurableList:
    def test_append_and_read(self, cluster):
        lst = DurableList(make_store(cluster), "events")

        def flow():
            for v in ["x", "y", "z"]:
                yield from lst.append(v)
            return (yield from lst.all()), (yield from lst.get(1))

        assert drive(cluster, flow()) == (["x", "y", "z"], "y")

    def test_pop_front_fifo(self, cluster):
        lst = DurableList(make_store(cluster), "fifo")

        def flow():
            yield from lst.append(1)
            yield from lst.append(2)
            a = yield from lst.pop_front()
            b = yield from lst.pop_front()
            c = yield from lst.pop_front()
            return a, b, c

        assert drive(cluster, flow()) == (1, 2, None)


class TestShardLeases:
    def make_env(self, cluster, name):
        runtime = BokiFlowRuntime(cluster)
        fnode = cluster.function_nodes[0]
        ctx = FunctionContext(node=fnode.node, gateway=None, book_id=26)
        return WorkflowEnv(runtime, ctx, name)

    def test_each_shard_leased_once(self, cluster):
        q = BokiQueue(cluster.logbook(26), "leased", num_shards=2)

        def flow():
            env1 = self.make_env(cluster, "c1")
            env2 = self.make_env(cluster, "c2")
            env3 = self.make_env(cluster, "c3")
            l1 = yield from acquire_shard(q, env1, "c1")
            l2 = yield from acquire_shard(q, env2, "c2")
            l3 = yield from acquire_shard(q, env3, "c3")
            return (
                l1.shard if l1 else None,
                l2.shard if l2 else None,
                l3 is None,
            )

        s1, s2, none3 = drive(cluster, flow())
        assert {s1, s2} == {0, 1}
        assert none3 is True

    def test_release_frees_shard(self, cluster):
        q = BokiQueue(cluster.logbook(26), "leased2", num_shards=1)

        def flow():
            env1 = self.make_env(cluster, "c1")
            env2 = self.make_env(cluster, "c2")
            lease = yield from acquire_shard(q, env1, "c1")
            yield from lease.release()
            lease2 = yield from acquire_shard(q, env2, "c2")
            return lease2 is not None

        assert drive(cluster, flow()) is True

    def test_leased_consumer_pops(self, cluster):
        q = BokiQueue(cluster.logbook(26), "leased3", num_shards=1)

        def flow():
            yield from q.producer().push("job")
            env = self.make_env(cluster, "worker")
            lease = yield from acquire_shard(q, env, "worker")
            value = yield from lease.consumer.pop()
            yield from lease.release()
            return value

        assert drive(cluster, flow()) == "job"

    def test_start_shard_rotates_scan_order(self, cluster):
        """A consumer re-acquiring with a start offset must reach shards
        beyond shard 0 even when shard 0 is free (drained-shard camping)."""
        q = BokiQueue(cluster.logbook(26), "leased5", num_shards=3)

        def flow():
            env = self.make_env(cluster, "rotator")
            lease = yield from acquire_shard(q, env, "rotator", start_shard=2)
            shard = lease.shard
            yield from lease.release()
            return shard

        assert drive(cluster, flow()) == 2

    def test_acquire_wait_blocks_until_release(self, cluster):
        q = BokiQueue(cluster.logbook(26), "leased4", num_shards=1)
        env_sim = cluster.env
        got = []

        def holder():
            env = self.make_env(cluster, "holder")
            lease = yield from acquire_shard(q, env, "holder")
            yield env_sim.timeout(0.05)
            yield from lease.release()

        def waiter():
            env = self.make_env(cluster, "waiter")
            lease = yield from acquire_shard_wait(q, env, "waiter")
            got.append((lease is not None, env_sim.now))

        ph = env_sim.process(holder())
        pw = env_sim.process(waiter())
        env_sim.run_until(pw, limit=300.0)
        env_sim.run_until(ph, limit=300.0)
        assert got[0][0] is True
        assert got[0][1] >= 0.05


class TestLocalityScheduler:
    def test_prefers_index_nodes(self, cluster):
        scheduler = enable_locality_scheduling(cluster)
        seen_nodes = []

        def probe(ctx, arg):
            seen_nodes.append(ctx.node.name)
            if False:
                yield
            return None

        cluster.register_function("probe", probe)

        def flow():
            for _ in range(8):
                yield from cluster.invoke("probe", book_id=5)

        cluster.drive(flow(), limit=120.0)
        log_id = cluster.term.log_for_book(5)
        index_names = set(cluster.term.assignment(log_id).index_engines)
        assert all(name in index_names for name in seen_nodes)
        assert scheduler.locality_rate == 1.0

    def test_falls_back_without_book(self, cluster):
        scheduler = enable_locality_scheduling(cluster)

        def probe(ctx, arg):
            if False:
                yield
            return None

        cluster.register_function("probe2", probe)

        def flow():
            for _ in range(4):
                yield from cluster.invoke("probe2")  # no book binding

        cluster.drive(flow(), limit=120.0)
        assert scheduler.remote_placements == 4

    def test_falls_back_when_preferred_nodes_dead(self):
        from repro.core import BokiCluster

        c = BokiCluster(num_function_nodes=4, index_engines_per_log=2)
        c.boot()
        enable_locality_scheduling(c)

        def probe(ctx, arg):
            if False:
                yield
            return ctx.node.name

        c.register_function("probe4", probe)
        log_id = c.term.log_for_book(5)
        preferred = set(c.term.assignment(log_id).index_engines)
        for fnode in c.function_nodes:
            if fnode.name in preferred:
                fnode.node.crash()

        def flow():
            return (yield from c.invoke("probe4", book_id=5))

        # With all preferred nodes dead the scheduler still places the
        # invocation on a surviving node.
        survivors = {f.name for f in c.function_nodes if f.node.alive}
        assert survivors
        assert c.drive(flow(), limit=120.0) in survivors

    def test_balances_within_preferred_set(self, cluster):
        enable_locality_scheduling(cluster)
        seen = []

        def probe(ctx, arg):
            seen.append(ctx.node.name)
            yield cluster.env.timeout(0.001)
            return None

        cluster.register_function("probe3", probe)

        def flow():
            for _ in range(12):
                yield from cluster.invoke("probe3", book_id=5)

        cluster.drive(flow(), limit=120.0)
        # All four index engines should receive work.
        assert len(set(seen)) >= 3


class TestLeaseReclaim:
    """Recovering shards whose consumer crashed while holding the lease."""

    def make_env(self, cluster, name):
        runtime = BokiFlowRuntime(cluster)
        fnode = cluster.function_nodes[0]
        ctx = FunctionContext(node=fnode.node, gateway=None, book_id=26)
        return WorkflowEnv(runtime, ctx, name)

    def test_reclaim_takes_over_dead_consumer_shard(self, cluster):
        from repro.libs.bokiqueue.leases import reclaim_shard

        q = BokiQueue(cluster.logbook(26), "reclaim1", num_shards=1)

        def flow():
            dead_env = self.make_env(cluster, "dead")
            # The consumer acquires, processes nothing, and "crashes":
            # its lease record stays in the log with no release.
            yield from acquire_shard(q, dead_env, "dead-consumer")
            succ_env = self.make_env(cluster, "succ")
            # A successor cannot acquire normally...
            blocked = yield from acquire_shard(q, succ_env, "successor")
            # ...but after (externally) determining the holder is gone it
            # reclaims: force-release chained on the stale acquire + lock.
            lease = yield from reclaim_shard(q, succ_env, 0, "dead-consumer",
                                             "successor")
            return blocked is None, lease

        blocked, lease = drive(cluster, flow())
        assert blocked is True
        assert lease is not None and lease.shard == 0

    def test_reclaimed_lease_consumes_and_releases(self, cluster):
        from repro.libs.bokiqueue.leases import reclaim_shard

        q = BokiQueue(cluster.logbook(26), "reclaim2", num_shards=1)

        def flow():
            yield from q.producer().push("orphaned-job")
            dead_env = self.make_env(cluster, "dead")
            yield from acquire_shard(q, dead_env, "dead-consumer")
            succ_env = self.make_env(cluster, "succ")
            lease = yield from reclaim_shard(q, succ_env, 0, "dead-consumer",
                                             "successor")
            value = yield from lease.consumer.pop()
            yield from lease.release()
            # After the successor releases, a third consumer acquires freely.
            third = yield from acquire_shard(q, self.make_env(cluster, "t"),
                                             "third")
            return value, third is not None

        value, reacquired = drive(cluster, flow())
        assert value == "orphaned-job"
        assert reacquired is True

    def test_racing_reclaims_linearized_one_winner(self, cluster):
        from repro.libs.bokiqueue.leases import reclaim_shard

        q = BokiQueue(cluster.logbook(26), "reclaim3", num_shards=1)
        env_sim = cluster.env
        results = {}

        def setup():
            dead_env = self.make_env(cluster, "dead")
            yield from acquire_shard(q, dead_env, "dead-consumer")

        def racer(name):
            env = self.make_env(cluster, name)
            lease = yield from reclaim_shard(q, env, 0, "dead-consumer", name)
            results[name] = lease

        drive(cluster, setup())
        procs = [env_sim.process(racer(f"succ-{i}")) for i in range(2)]
        env_sim.run_until(env_sim.all_of(procs), limit=600.0)
        winners = [name for name, lease in results.items() if lease is not None]
        assert len(winners) == 1
