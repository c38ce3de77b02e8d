"""The operation history attaches through the seam.

``History.watch`` records a support-library object's client operations by
wrapping its declared ``WRAP_POINTS`` under the ``chaos`` layer, and
``History.record`` is the one place an operation's invoke / ok / fail is
written. The admission half: every admission and tenancy decision reaches
the monitor hub through one ``admission_decided`` signal, whichever layer
was enabled first.
"""

import pytest

from repro.admission import Overloaded
from repro.baselines.dynamodb import DynamoDBService
from repro.chaos.history import FAIL, OK, History
from repro.core.cluster import BokiCluster
from repro.libs.bokiflow import BokiFlowRuntime
from repro.libs.bokiflow.env import WorkflowCrash
from repro.libs.bokiqueue import BokiQueue
from repro.libs.bokistore import BokiStore
from tests.conftest import FixedLimiter


@pytest.fixture
def cluster():
    c = BokiCluster(num_function_nodes=2, seed=2)
    c.boot()
    return c


def fields(op):
    return (op.client, op.kind, op.key, op.value, op.status, op.result)


class TestWatchedStore:
    def test_put_and_get_record_their_ops(self, cluster):
        history = History(cluster.env)
        store = history.watch(BokiStore(cluster.logbook(1)), "client-0")

        def flow():
            seqnum = yield from store.put("k", {"n": 1})
            yield from store.get_object("k")
            return seqnum

        seqnum = cluster.drive(flow())
        assert [fields(op) for op in history.ops] == [
            ("client-0", "store.put", "k", {"n": 1}, OK, seqnum),
            ("client-0", "store.get", "k", None, OK, {"n": 1}),
        ]
        for op in history.ops:
            assert op.t_invoke < op.t_return
        assert history.ops[0].t_return <= history.ops[1].t_invoke

    def test_update_and_snapshot_read_record_nothing(self, cluster):
        history = History(cluster.env)
        store = history.watch(BokiStore(cluster.logbook(1)), "client-0")

        def flow():
            seqnum = yield from store.update("k", [{"op": "set", "path": "n", "value": 1}])
            yield from store.update("k", [{"op": "inc", "path": "n", "value": 1}])
            view = yield from store.get_object("k", at=seqnum)
            return view.get("n")

        assert cluster.drive(flow()) == 1
        assert history.ops == []

    def test_failed_put_records_fail_and_reraises(self, cluster):
        history = History(cluster.env)
        store = history.watch(BokiStore(cluster.logbook(1)), "client-0")

        def broken_aux_put(record, aux):
            yield cluster.env.timeout(0.0)
            raise RuntimeError("aux channel down")

        store.aux_put = broken_aux_put

        def flow():
            with pytest.raises(RuntimeError, match="aux channel down"):
                yield from store.put("k", {"n": 1})

        cluster.drive(flow())
        [op] = history.ops
        assert (op.kind, op.status, op.error) == ("store.put", FAIL, "RuntimeError")
        assert op.t_return == cluster.env.now

    def test_watching_twice_raises(self, cluster):
        history = History(cluster.env)
        store = history.watch(BokiStore(cluster.logbook(1)), "client-0")
        with pytest.raises(ValueError, match="already wraps"):
            history.watch(store, "client-1")


def test_pop_wait_records_real_pops_not_empty_peeks(cluster):
    history = History(cluster.env)
    queue = BokiQueue(cluster.logbook(1), "q")
    consumer = history.watch(queue.consumer(0), "consumer-0")
    env = cluster.env

    def producer():
        yield env.timeout(0.05)  # the consumer peeks an empty shard first
        yield from queue.producer().push("m-0")

    def flow():
        env.process(producer())
        first = yield from consumer.pop_wait(poll_interval=0.01, max_polls=50)
        second = yield from consumer.pop_wait(poll_interval=0.01, max_polls=3)
        return first, second

    assert cluster.drive(flow()) == ("m-0", None)
    [op] = history.ops
    assert fields(op) == ("consumer-0", "queue.pop", "q", 0, OK, "m-0")
    assert op.t_invoke >= 0.05


def test_redriven_workflow_records_one_run():
    cluster = BokiCluster(num_function_nodes=2, seed=2)
    cluster.enable_resilience()
    DynamoDBService(cluster.env, cluster.net, cluster.streams)
    cluster.boot()
    history = History(cluster.env)
    runtime = history.watch(BokiFlowRuntime(cluster), "flow")
    crashes = []

    def hook(wf_env, step):
        if step == 1 and not crashes:
            crashes.append(step)
            raise WorkflowCrash("coordinator died")

    runtime.fault_hook = hook

    def body(wf_env, arg):
        yield from wf_env.write("t", f"{arg}-a", 1)
        yield from wf_env.write("t", f"{arg}-b", 2)
        return arg

    runtime.register_workflow("wf", body)
    result = cluster.drive(runtime.run_workflow("wf", "x", book_id=1,
                                                workflow_id="wf-0"))
    assert result == "x" and crashes == [1]
    assert [fields(op) for op in history.ops] == [
        ("flow", "flow.run", "wf-0", "x", OK, "x"),
    ]


def _shedding_run(monitoring_first: bool) -> dict:
    """Open-loop bursts over a 2-slot gateway limit and a rate-capped
    tenant: both the admission controller and the tenancy hub shed."""
    cluster = BokiCluster(num_function_nodes=2, seed=4)
    if monitoring_first:
        hub = cluster.enable_monitoring()
    cluster.enable_admission(
        limiter=FixedLimiter(2))
    cluster.enable_tenancy().registry.register("capped", rate=5.0, burst=2.0)
    if not monitoring_first:
        hub = cluster.enable_monitoring()
    cluster.boot()
    env = cluster.env

    def fn(ctx, arg):
        yield env.timeout(0.01)
        return arg

    cluster.register_function("f", fn)

    def one(i):
        try:
            yield from cluster.invoke("f", i, tenant="capped" if i % 2 else None)
        except Overloaded:
            pass

    env.run_until(env.all_of([env.process(one(i)) for i in range(12)]),
                  limit=10.0)
    return hub.admission_summary()


def test_admission_summary_does_not_depend_on_enable_order():
    first, last = _shedding_run(True), _shedding_run(False)
    assert first == last
    reasons = first["by_reason"]
    assert "concurrency-limit" in reasons
    assert "tenant.capped:rate-limit" in reasons
    assert first["shed"] == sum(reasons.values()) > 0
