"""Tests for the application workloads: movie, travel, Retwis, queueing,
primitives."""

import pytest

from repro.baselines.beldi import BeldiRuntime
from repro.baselines.dynamodb import DynamoDBService
from repro.baselines.mongodb import MongoDBClient, MongoDBService
from repro.baselines.unsafe import UnsafeRuntime
from repro.core import BokiCluster
from repro.chaos.checkers import check_exactly_once
from repro.libs.bokiflow import BokiFlowRuntime, TxnAbortedError, WorkflowTxn
from repro.libs.bokiflow.env import WorkflowCrash
from repro.libs.bokistore import BokiStore
from repro.workloads.movie import (
    TABLE_MOVIE_REVIEWS,
    compose_review_request,
    register_full_movie_workflows,
)
from repro.workloads.primitives import measure_primitives, register_primitive_workflows
from repro.workloads.queueing import BokiQueueBackend, SQSBackend, run_queue_workload
from repro.workloads.retwis import RetwisBokiStore, RetwisMongo, retwis_op
from repro.workloads.travel import TABLE_FLIGHTS, TABLE_HOTELS, register_travel_workflows, reserve_request


@pytest.fixture
def cluster_and_db():
    c = BokiCluster(num_function_nodes=4, index_engines_per_log=4)
    db = DynamoDBService(c.env, c.net, c.streams)
    c.boot()
    return c, db


@pytest.fixture
def cluster(cluster_and_db):
    return cluster_and_db[0]


@pytest.fixture
def db(cluster_and_db):
    return cluster_and_db[1]


ALL_RUNTIMES = [BokiFlowRuntime, BeldiRuntime, UnsafeRuntime]

#: Figure 11c's cost structure: (LogBook appends, DynamoDB operations) per
#: primitive. A system is its step log, so this is all that may differ.
PRIMITIVE_COSTS = {
    BokiFlowRuntime: {"write": (1, 1), "cond_write": (1, 2), "invoke": (5, 0)},
    BeldiRuntime: {"write": (0, 3), "cond_write": (0, 4), "invoke": (0, 11)},
    UnsafeRuntime: {"write": (0, 1), "cond_write": (0, 2), "invoke": (0, 0)},
}


@pytest.mark.parametrize("runtime_class", ALL_RUNTIMES)
class TestOneProtocolThreeStepLogs:
    def test_crash_after_step_1_and_reexecute(self, cluster, db, runtime_class):
        """The journal audits every system the same way: the logged ones
        re-execute exactly-once, the unsafe one re-applies steps 0 and 1."""
        runtime = runtime_class(cluster)
        name = f"crash-{runtime_class.__name__}"
        armed = {"crash": True}

        def hook(env, step):
            if step == 2 and armed["crash"]:
                armed["crash"] = False
                raise WorkflowCrash("died before step 2")

        runtime.fault_hook = hook

        def body(env, arg):
            for step in range(3):
                yield from env.write("t", f"k{step}", step)
            return "ok"

        runtime.register_workflow(name, body)
        wf_id = runtime.new_workflow_id()

        def flow():
            with pytest.raises(WorkflowCrash):
                yield from runtime.start_workflow(name, book_id=1, workflow_id=wf_id)
            return (yield from runtime.start_workflow(name, book_id=1, workflow_id=wf_id))

        assert cluster.drive(flow(), limit=600.0) == "ok"
        result = check_exactly_once(db.effect_log, [(wf_id, step) for step in range(3)])
        duplicated = 2 if runtime_class is UnsafeRuntime else 0
        assert len(result.violations) == duplicated, result.violations

    def test_primitive_cost_structure(self, cluster, db, runtime_class):
        runtime = runtime_class(cluster)
        name = f"cost-{runtime_class.__name__}"
        costs = {}

        def spent():
            appends = sum(e.appends_started for e in cluster.engines.values())
            return appends, db.op_count

        def child(env, arg):
            if False:
                yield
            return arg

        def body(env, arg):
            for primitive, op in [
                ("write", lambda: env.write("t", "k", 1)),
                ("cond_write", lambda: env.cond_write("t", "k", 2, expected=1)),
                ("invoke", lambda: env.invoke(f"{name}-child")),
            ]:
                before = spent()
                yield from op()
                costs[primitive] = tuple(now - then for now, then in zip(spent(), before))

        runtime.register_workflow(f"{name}-child", child)
        runtime.register_workflow(name, body)
        cluster.drive(runtime.start_workflow(name, book_id=1), limit=600.0)
        assert costs == PRIMITIVE_COSTS[runtime_class]

    def test_finished_txn_rejects_reuse(self, cluster, runtime_class):
        runtime = runtime_class(cluster)
        name = f"txn-{runtime_class.__name__}"

        def body(env, arg):
            txn = WorkflowTxn(env)
            assert (yield from txn.acquire([("t", "x")]))
            txn.write("t", "x", 1)
            yield from txn.commit()
            with pytest.raises(TxnAbortedError):
                txn.write("t", "x", 2)
            with pytest.raises(TxnAbortedError):
                yield from txn.commit()
            yield from txn.abort()  # a no-op once finished
            return (yield from env.read("t", "x"))

        runtime.register_workflow(name, body)
        assert cluster.drive(runtime.start_workflow(name, book_id=1), limit=600.0) == 1


class TestMovieWorkflow:
    @pytest.mark.parametrize("runtime_class", ALL_RUNTIMES)
    def test_compose_review_end_to_end(self, cluster, runtime_class):
        runtime = runtime_class(cluster)
        frontend = register_full_movie_workflows(
            runtime, prefix=f"m-{runtime_class.__name__}")
        rng = cluster.streams.stream("movie-test")

        def flow():
            request = compose_review_request(rng, 0)
            # The review must be registered with the movie.
            review = yield from runtime.start_workflow(frontend, request, book_id=1)
            from repro.baselines.dynamodb import DynamoDBClient

            db = DynamoDBClient(cluster.net, cluster.client_node)
            reviews = yield from db.get(TABLE_MOVIE_REVIEWS, request["movie"])
            return review["review_id"], reviews["Value"]

        review_id, reviews = cluster.drive(flow(), limit=600.0)
        assert review_id in reviews

    def test_movie_reviews_accumulate(self, cluster):
        runtime = BokiFlowRuntime(cluster)
        frontend = register_full_movie_workflows(runtime, prefix="m-acc")

        def flow():
            request = {"user": "u", "movie": "m", "text": "t", "rating": 5}
            r1 = yield from runtime.start_workflow(frontend, dict(request), book_id=1)
            r2 = yield from runtime.start_workflow(frontend, dict(request), book_id=1)
            from repro.baselines.dynamodb import DynamoDBClient

            db = DynamoDBClient(cluster.net, cluster.client_node)
            reviews = yield from db.get(TABLE_MOVIE_REVIEWS, "m")
            return r1["review_id"], r2["review_id"], reviews["Value"]

        r1, r2, reviews = cluster.drive(flow(), limit=600.0)
        assert r1 != r2
        assert set(reviews) == {r1, r2}


class TestTravelWorkflow:
    @pytest.mark.parametrize("runtime_class", ALL_RUNTIMES)
    def test_reservation_decrements_capacity(self, cluster, runtime_class):
        runtime = runtime_class(cluster)
        frontend = register_travel_workflows(runtime, prefix=f"t-{runtime_class.__name__}")

        def flow():
            from repro.baselines.dynamodb import DynamoDBClient

            db = DynamoDBClient(cluster.net, cluster.client_node)
            yield from db.update(TABLE_FLIGHTS, "f1", set_attrs={"Value": 5})
            yield from db.update(TABLE_HOTELS, "h1", set_attrs={"Value": 5})
            result = yield from runtime.start_workflow(
                frontend, {"user": "u", "flight": "f1", "hotel": "h1"}, book_id=1
            )
            seats = yield from db.get(TABLE_FLIGHTS, "f1")
            rooms = yield from db.get(TABLE_HOTELS, "h1")
            return result["status"], seats["Value"], rooms["Value"]

        status, seats, rooms = cluster.drive(flow(), limit=600.0)
        assert status == "confirmed"
        assert (seats, rooms) == (4, 4)

    def test_sold_out(self, cluster):
        runtime = BokiFlowRuntime(cluster)
        frontend = register_travel_workflows(runtime, prefix="t-so")

        def flow():
            from repro.baselines.dynamodb import DynamoDBClient

            db = DynamoDBClient(cluster.net, cluster.client_node)
            yield from db.update(TABLE_FLIGHTS, "f1", set_attrs={"Value": 0})
            yield from db.update(TABLE_HOTELS, "h1", set_attrs={"Value": 5})
            result = yield from runtime.start_workflow(
                frontend, {"user": "u", "flight": "f1", "hotel": "h1"}, book_id=1
            )
            rooms = yield from db.get(TABLE_HOTELS, "h1")
            return result["status"], rooms["Value"]

        status, rooms = cluster.drive(flow(), limit=600.0)
        assert status == "sold-out"
        assert rooms == 5  # hotel capacity untouched (atomicity)


class TestRetwis:
    def test_bokistore_backend_end_to_end(self, cluster):
        backend = RetwisBokiStore(BokiStore(cluster.logbook(30)), num_users=10)

        def flow():
            yield from backend.init_users()
            login = yield from backend.user_login(3)
            yield from backend.new_tweet(3, "hello world")
            own_timeline = yield from backend.get_timeline(3)
            follower_timeline = yield from backend.get_timeline(4)
            return login, own_timeline, follower_timeline

        login, own, follower = cluster.drive(flow(), limit=600.0)
        assert login is True
        assert own == ["hello world"]
        assert follower == ["hello world"]  # user 4 follows user 3

    def test_mongo_backend_end_to_end(self, cluster):
        MongoDBService(cluster.env, cluster.net, cluster.streams)
        backend = RetwisMongo(MongoDBClient(cluster.net, cluster.client_node), num_users=10)

        def flow():
            yield from backend.init_users()
            login = yield from backend.user_login(3)
            yield from backend.new_tweet(3, "hello mongo")
            own = yield from backend.get_timeline(3)
            return login, own

        login, own = cluster.drive(flow(), limit=600.0)
        assert login is True
        assert own == ["hello mongo"]

    def test_mixture_sampler(self, cluster):
        backend = RetwisBokiStore(BokiStore(cluster.logbook(31)), num_users=10)
        rng = cluster.streams.stream("retwis-mix")
        kinds = [retwis_op(backend, rng, i)[0] for i in range(2000)]
        from collections import Counter

        counts = Counter(kinds)
        assert 0.40 < counts["timeline"] / 2000 < 0.60
        assert 0.02 < counts["tweet"] / 2000 < 0.10

    def test_profiles_reflect_tweets(self, cluster):
        backend = RetwisBokiStore(BokiStore(cluster.logbook(32)), num_users=5)

        def flow():
            yield from backend.init_users()
            yield from backend.new_tweet(1, "a")
            yield from backend.new_tweet(1, "b")
            profile = yield from backend.user_profile(1)
            return profile

        profile = cluster.drive(flow(), limit=600.0)
        assert profile["tweets"] == 2


class TestQueueWorkload:
    def test_bokiqueue_backend_delivers(self, cluster):
        backend = BokiQueueBackend(cluster, num_shards=2)
        throughput, delivery = run_queue_workload(
            cluster.env, backend, num_producers=2, num_consumers=2, duration=0.3
        )
        assert throughput > 10
        assert delivery.count > 0
        assert delivery.median() > 0

    def test_sqs_backend_delivers(self, cluster):
        from repro.baselines.sqs import SQSService

        SQSService(cluster.env, cluster.net, cluster.streams)
        backend = SQSBackend(cluster)
        throughput, delivery = run_queue_workload(
            cluster.env, backend, num_producers=2, num_consumers=2, duration=0.3
        )
        assert throughput > 10

    def test_producer_heavy_builds_delay(self):
        """4:1 P:C saturates the consumer: delivery latency >> balanced."""
        from repro.baselines.sqs import SQSService

        def delivery(num_producers):
            """Each mix on a cluster of its own: a queue the other run
            left a backlog in would delay this one's deliveries."""
            cluster = BokiCluster(num_function_nodes=4, index_engines_per_log=4)
            SQSService(cluster.env, cluster.net, cluster.streams)
            cluster.boot()
            _, recorder = run_queue_workload(
                cluster.env, SQSBackend(cluster), num_producers=num_producers,
                num_consumers=2, duration=0.3
            )
            return recorder

        assert delivery(8).median() > 2 * delivery(2).median()


class TestPrimitives:
    def test_bokiflow_primitives_measured(self, cluster):
        runtime = BokiFlowRuntime(cluster)
        register_primitive_workflows(runtime)
        recorders = measure_primitives(runtime, ops_per_workflow=5, workflows=2)
        assert set(recorders) == {"read", "write", "condwrite", "invoke"}
        assert all(r.count == 10 for r in recorders.values())

    def test_beldi_invoke_slower_than_bokiflow(self, cluster):
        boki = BokiFlowRuntime(cluster)
        beldi = BeldiRuntime(cluster)
        register_primitive_workflows(boki)
        register_primitive_workflows(beldi)
        boki_lat = measure_primitives(boki, ops_per_workflow=5, workflows=2)
        beldi_lat = measure_primitives(beldi, ops_per_workflow=5, workflows=2)
        # The Figure 11c headline: Beldi's Invoke pays DynamoDB round
        # trips per log append.
        assert beldi_lat["invoke"].median() > 2 * boki_lat["invoke"].median()
