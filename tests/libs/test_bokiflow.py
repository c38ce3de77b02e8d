"""Tests for BokiFlow: exactly-once workflows, locks, transactions (§5.1)."""

import pytest

from repro.libs.bokiflow import BokiFlowRuntime, WorkflowTxn, check_lock_state, try_lock, unlock
from repro.libs.bokiflow.env import WorkflowCrash, WorkflowEnv
from tests.libs.conftest import drive


@pytest.fixture
def runtime(cluster):
    return BokiFlowRuntime(cluster)


class TestBasicWorkflows:
    def test_write_then_read(self, cluster, runtime):
        def body(env, arg):
            yield from env.write("t", "k", "hello")
            return (yield from env.read("t", "k"))

        runtime.register_workflow("wf", body)

        def flow():
            return (yield from runtime.start_workflow("wf", book_id=1))

        assert drive(cluster, flow()) == "hello"

    def test_read_missing_returns_none(self, cluster, runtime):
        def body(env, arg):
            return (yield from env.read("t", "missing"))

        runtime.register_workflow("wf", body)

        def flow():
            return (yield from runtime.start_workflow("wf", book_id=1))

        assert drive(cluster, flow()) is None

    def test_invoke_returns_child_result(self, cluster, runtime):
        def child(env, arg):
            yield from env.write("t", "c", arg)
            return arg + 1

        def parent(env, arg):
            return (yield from env.invoke("child", 41))

        runtime.register_workflow("child", child)
        runtime.register_workflow("parent", parent)

        def flow():
            return (yield from runtime.start_workflow("parent", book_id=1))

        assert drive(cluster, flow()) == 42

    def test_cond_write_applies_only_on_match(self, cluster, runtime):
        def body(env, arg):
            yield from env.write("t", "k", "v0")
            first = yield from env.cond_write("t", "k", "v1", expected="v0")
            second = yield from env.cond_write("t", "k", "v2", expected="nope")
            final = yield from env.read("t", "k")
            return first, second, final

        runtime.register_workflow("wf", body)

        def flow():
            return (yield from runtime.start_workflow("wf", book_id=1))

        assert drive(cluster, flow()) == (True, False, "v1")

    def test_distinct_workflow_ids_isolated(self, cluster, runtime):
        def body(env, arg):
            yield from env.write("t", f"k-{arg}", arg)
            return arg

        runtime.register_workflow("wf", body)

        def flow():
            a = yield from runtime.start_workflow("wf", 1, book_id=1)
            b = yield from runtime.start_workflow("wf", 2, book_id=1)
            return a, b

        assert drive(cluster, flow()) == (1, 2)


class TestExactlyOnce:
    def test_reexecution_skips_completed_writes(self, cluster, runtime):
        """Crash after the first write; re-execute; the write must apply
        exactly once even though the workflow ran twice."""
        crashes = {"armed": True}

        def body(env, arg):
            # Increment-style write: read, then write read+1. Re-executing
            # blindly would double-increment.
            current = (yield from env.read("t", "counter")) or 0
            yield from env.write("t", "counter", current + 1)
            if crashes["armed"]:
                crashes["armed"] = False
                raise WorkflowCrash("injected")
            yield from env.write("t", "other", "done")
            return (yield from env.read("t", "counter"))

        runtime.register_workflow("wf", body)

        def flow():
            wf_id = runtime.new_workflow_id()
            try:
                yield from runtime.start_workflow("wf", book_id=1, workflow_id=wf_id)
            except WorkflowCrash:
                pass
            # Re-execute with the same workflow id (Beldi's recovery path).
            return (yield from runtime.start_workflow("wf", book_id=1, workflow_id=wf_id))

        assert drive(cluster, flow()) == 1  # not 2

    def test_reexecution_returns_logged_result(self, cluster, runtime):
        """A completed workflow re-executed returns its original result
        without re-running the body."""
        runs = {"count": 0}

        def body(env, arg):
            runs["count"] += 1
            yield from env.write("t", "k", runs["count"])
            return runs["count"]

        runtime.register_workflow("wf", body)

        def flow():
            wf_id = runtime.new_workflow_id()
            first = yield from runtime.start_workflow("wf", book_id=1, workflow_id=wf_id)
            second = yield from runtime.start_workflow("wf", book_id=1, workflow_id=wf_id)
            return first, second

        assert drive(cluster, flow()) == (1, 1)
        assert runs["count"] == 1

    def test_reexecuted_invoke_does_not_rerun_completed_child(self, cluster, runtime):
        child_runs = {"count": 0}
        crashes = {"armed": True}

        def child(env, arg):
            child_runs["count"] += 1
            yield from env.write("t", "child-effect", child_runs["count"])
            return "child-result"

        def parent(env, arg):
            result = yield from env.invoke("child")
            if crashes["armed"]:
                crashes["armed"] = False
                raise WorkflowCrash("injected after child")
            return result

        runtime.register_workflow("child", child)
        runtime.register_workflow("parent", parent)

        def flow():
            wf_id = runtime.new_workflow_id()
            try:
                yield from runtime.start_workflow("parent", book_id=1, workflow_id=wf_id)
            except WorkflowCrash:
                pass
            return (yield from runtime.start_workflow("parent", book_id=1, workflow_id=wf_id))

        assert drive(cluster, flow()) == "child-result"
        # Child body ran once: the re-invoked child saw its logged result.
        assert child_runs["count"] == 1

    def test_crash_before_any_step_then_full_run(self, cluster, runtime):
        crashes = {"armed": True}

        def body(env, arg):
            if crashes["armed"]:
                crashes["armed"] = False
                raise WorkflowCrash("early")
            yield from env.write("t", "k", "v")
            return "ok"

        runtime.register_workflow("wf", body)

        def flow():
            wf_id = runtime.new_workflow_id()
            try:
                yield from runtime.start_workflow("wf", book_id=1, workflow_id=wf_id)
            except WorkflowCrash:
                pass
            return (yield from runtime.start_workflow("wf", book_id=1, workflow_id=wf_id))

        assert drive(cluster, flow()) == "ok"


class TestLocks:
    def make_env(self, cluster, runtime, wf_id="lock-wf"):
        """A WorkflowEnv outside a function (driven from the client)."""
        from repro.faas import FunctionContext

        fnode = cluster.function_nodes[0]
        ctx = FunctionContext(node=fnode.node, gateway=None, book_id=7)
        return WorkflowEnv(runtime, ctx, wf_id)

    def test_lock_acquire_release_cycle(self, cluster, runtime):
        env = self.make_env(cluster, runtime)

        def flow():
            state = yield from try_lock(env, "resource", "me")
            assert state is not None
            held = yield from check_lock_state(env, "resource")
            yield from unlock(env, "resource", state)
            free = yield from check_lock_state(env, "resource")
            return held.holder, free.holder

        assert drive(cluster, flow()) == ("me", "")

    def test_second_acquire_fails_while_held(self, cluster, runtime):
        env = self.make_env(cluster, runtime)

        def flow():
            first = yield from try_lock(env, "res", "alice")
            second = yield from try_lock(env, "res", "bob")
            return first is not None, second is None

        assert drive(cluster, flow()) == (True, True)

    def test_acquire_after_release_succeeds(self, cluster, runtime):
        env = self.make_env(cluster, runtime)

        def flow():
            first = yield from try_lock(env, "res", "alice")
            yield from unlock(env, "res", first)
            second = yield from try_lock(env, "res", "bob")
            return second is not None and second.holder == "bob"

        assert drive(cluster, flow()) is True

    def test_concurrent_acquires_one_winner(self, cluster, runtime):
        """Two racing acquires: the log linearizes them — exactly one wins
        (the prev-chain mechanism of Figure 7)."""
        envs = [self.make_env(cluster, runtime, f"wf-{i}") for i in range(2)]
        results = []

        def contender(env, name):
            state = yield from try_lock(env, "hot", name)
            results.append((name, state is not None))

        p1 = cluster.env.process(contender(envs[0], "a"))
        p2 = cluster.env.process(contender(envs[1], "b"))
        cluster.env.run_until(p1, limit=120.0)
        cluster.env.run_until(p2, limit=120.0)
        wins = [name for name, won in results if won]
        assert len(wins) == 1

    def test_chain_survives_many_cycles(self, cluster, runtime):
        """Figure 7: alternating acquire/release builds a valid chain."""
        env = self.make_env(cluster, runtime)

        def flow():
            holders = []
            for i in range(4):
                state = yield from try_lock(env, "res", f"h{i}")
                assert state is not None
                holders.append(state.holder)
                yield from unlock(env, "res", state)
            return holders

        assert drive(cluster, flow()) == ["h0", "h1", "h2", "h3"]


class TestWorkflowTxn:
    def test_commit_applies_writes(self, cluster, runtime):
        def body(env, arg):
            txn = WorkflowTxn(env)
            ok = yield from txn.acquire([("t", "x"), ("t", "y")])
            assert ok
            txn.write("t", "x", 1)
            txn.write("t", "y", 2)
            yield from txn.commit()
            x = yield from env.read("t", "x")
            y = yield from env.read("t", "y")
            return x, y

        runtime.register_workflow("wf", body)

        def flow():
            return (yield from runtime.start_workflow("wf", book_id=1))

        assert drive(cluster, flow()) == (1, 2)

    def test_abort_discards_writes(self, cluster, runtime):
        def body(env, arg):
            txn = WorkflowTxn(env)
            yield from txn.acquire([("t", "x")])
            txn.write("t", "x", "should-not-appear")
            yield from txn.abort()
            return (yield from env.read("t", "x"))

        runtime.register_workflow("wf", body)

        def flow():
            return (yield from runtime.start_workflow("wf", book_id=1))

        assert drive(cluster, flow()) is None

    def test_txn_read_sees_buffered_write(self, cluster, runtime):
        def body(env, arg):
            txn = WorkflowTxn(env)
            yield from txn.acquire([("t", "x")])
            txn.write("t", "x", 99)
            value = yield from txn.read("t", "x")
            yield from txn.commit()
            return value

        runtime.register_workflow("wf", body)

        def flow():
            return (yield from runtime.start_workflow("wf", book_id=1))

        assert drive(cluster, flow()) == 99

    def test_locks_released_after_commit(self, cluster, runtime):
        def body(env, arg):
            txn1 = WorkflowTxn(env)
            yield from txn1.acquire([("t", "x")])
            txn1.write("t", "x", 1)
            yield from txn1.commit()
            txn2 = WorkflowTxn(env)
            ok = yield from txn2.acquire([("t", "x")])
            yield from txn2.commit()
            return ok

        runtime.register_workflow("wf", body)

        def flow():
            return (yield from runtime.start_workflow("wf", book_id=1))

        assert drive(cluster, flow()) is True

    def test_conflicting_txns_serialize(self, cluster, runtime):
        """Two transactions doing read-modify-write on the same key must
        not lose an update."""
        def body(env, arg):
            txn = WorkflowTxn(env)
            ok = yield from txn.acquire([("t", "counter")])
            if not ok:
                return False
            current = (yield from txn.read("t", "counter")) or 0
            txn.write("t", "counter", current + 1)
            yield from txn.commit()
            return True

        runtime.register_workflow("wf", body)

        def one(i):
            return runtime.start_workflow("wf", book_id=1, workflow_id=f"txn-wf-{i}")

        procs = [cluster.env.process(one(i)) for i in range(4)]
        outcomes = [cluster.env.run_until(p, limit=300.0) for p in procs]

        def check():
            env = TestLocks().make_env(cluster, runtime, "checker")
            return (yield from env.read("t", "counter"))

        final = drive(cluster, check())
        assert final == sum(1 for o in outcomes if o)
        assert final >= 1
