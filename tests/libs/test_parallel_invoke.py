"""Tests for exactly-once parallel fan-out invocation."""

import pytest

from repro.baselines.beldi import BeldiRuntime
from repro.baselines.unsafe import UnsafeRuntime
from repro.libs.bokiflow import BokiFlowRuntime
from repro.libs.bokiflow.env import WorkflowCrash
from tests.libs.conftest import drive

ALL_RUNTIMES = [BokiFlowRuntime, BeldiRuntime, UnsafeRuntime]


@pytest.mark.parametrize("runtime_class", ALL_RUNTIMES)
def test_fanout_returns_results_in_order(cluster, runtime_class):
    runtime = runtime_class(cluster)
    name = runtime_class.__name__

    def child(env, arg):
        yield cluster.env.timeout(0.002)
        return arg * 10

    def parent(env, arg):
        return (
            yield from env.invoke_parallel(
                [(f"{name}-child", 1), (f"{name}-child", 2), (f"{name}-child", 3)]
            )
        )

    runtime.register_workflow(f"{name}-child", child)
    runtime.register_workflow(f"{name}-parent", parent)

    def flow():
        return (yield from runtime.start_workflow(f"{name}-parent", book_id=1))

    assert drive(cluster, flow()) == [10, 20, 30]


def test_fanout_actually_parallel(cluster):
    """Three 10ms children in parallel must finish far faster than 30ms of
    serial invokes."""
    runtime = BokiFlowRuntime(cluster)

    def slow_child(env, arg):
        yield cluster.env.timeout(0.01)
        return arg

    def parent(env, arg):
        started = cluster.env.now
        yield from env.invoke_parallel([("slow", i) for i in range(3)])
        return cluster.env.now - started

    runtime.register_workflow("slow", slow_child)
    runtime.register_workflow("par", parent)

    def flow():
        return (yield from runtime.start_workflow("par", book_id=1))

    elapsed = drive(cluster, flow())
    assert elapsed < 0.025  # ~one child duration + protocol, not 3x


def test_fanout_exactly_once_across_crash(cluster):
    """Crash the parent after the fan-out completes; re-execution must not
    re-run any completed child body."""
    runtime = BokiFlowRuntime(cluster)
    child_runs = {"n": 0}
    crash = {"armed": True}

    def child(env, arg):
        child_runs["n"] += 1
        yield from env.write("t", f"eff-{arg}", arg)
        return arg

    def parent(env, arg):
        results = yield from env.invoke_parallel([("fo-child", i) for i in range(3)])
        if crash["armed"]:
            crash["armed"] = False
            raise WorkflowCrash("post-fanout crash")
        return results

    runtime.register_workflow("fo-child", child)
    runtime.register_workflow("fo-parent", parent)

    def flow():
        wf_id = runtime.new_workflow_id()
        try:
            yield from runtime.start_workflow("fo-parent", book_id=1, workflow_id=wf_id)
        except WorkflowCrash:
            pass
        return (
            yield from runtime.start_workflow("fo-parent", book_id=1, workflow_id=wf_id)
        )

    assert drive(cluster, flow()) == [0, 1, 2]
    assert child_runs["n"] == 3  # children did not re-execute


def test_fanout_step_counter_advances_once(cluster):
    runtime = BokiFlowRuntime(cluster)
    steps = []

    def child(env, arg):
        if False:
            yield
        return arg

    def parent(env, arg):
        yield from env.invoke_parallel([("sc-child", 1), ("sc-child", 2)])
        steps.append(env.step)
        yield from env.write("t", "after", "x")
        steps.append(env.step)
        return None

    runtime.register_workflow("sc-child", child)
    runtime.register_workflow("sc-parent", parent)

    def flow():
        yield from runtime.start_workflow("sc-parent", book_id=1)

    drive(cluster, flow())
    assert steps == [1, 2]  # fan-out consumed exactly one step


def test_empty_fanout(cluster):
    runtime = BokiFlowRuntime(cluster)

    def parent(env, arg):
        return (yield from env.invoke_parallel([]))

    runtime.register_workflow("empty-parent", parent)

    def flow():
        return (yield from runtime.start_workflow("empty-parent", book_id=1))

    assert drive(cluster, flow()) == []


def test_fanout_branches_never_see_each_others_positions(cluster):
    """Each branch's child is sent its own copy of the parent's positions:
    one branch's appends do not move a sibling's map while both run."""
    runtime = BokiFlowRuntime(cluster)
    seen = {}

    def writer(env, arg):
        yield from env.book.append({"branch": "writer"})
        seen["writer"] = dict(env.ctx.positions)
        return None

    def watcher(env, arg):
        before = dict(env.ctx.positions)
        yield cluster.env.timeout(0.02)  # the writer appends and returns meanwhile
        seen["watcher"] = (before, dict(env.ctx.positions))
        return None

    def parent(env, arg):
        yield from env.invoke_parallel([("pb-writer", None), ("pb-watcher", None)])
        return None

    runtime.register_workflow("pb-writer", writer)
    runtime.register_workflow("pb-watcher", watcher)
    runtime.register_workflow("pb-parent", parent)

    def flow():
        yield from runtime.start_workflow("pb-parent", book_id=1)

    drive(cluster, flow())
    before, after = seen["watcher"]
    assert after == before
    (log_id,) = seen["writer"]
    assert seen["writer"][log_id] > after[log_id]
