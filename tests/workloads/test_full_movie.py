"""Tests for the full DeathStarBench-style movie service graph."""

import pytest

from repro.baselines.beldi import BeldiRuntime
from repro.baselines.dynamodb import DynamoDBClient, DynamoDBService
from repro.core import BokiCluster
from repro.libs.bokiflow import BokiFlowRuntime
from repro.libs.bokiflow.env import WorkflowCrash
from repro.workloads.movie import (
    TABLE_MOVIE_INFO,
    TABLE_MOVIE_REVIEWS,
    TABLE_REVIEWS,
    register_full_movie_workflows,
)


@pytest.fixture
def cluster():
    c = BokiCluster(num_function_nodes=4, index_engines_per_log=4)
    DynamoDBService(c.env, c.net, c.streams)
    c.boot()
    return c


def db(cluster):
    return DynamoDBClient(cluster.net, cluster.client_node)


class TestFullMovieGraph:
    def test_end_to_end(self, cluster):
        runtime = BokiFlowRuntime(cluster)
        frontend = register_full_movie_workflows(runtime, prefix="fm1")

        def flow():
            request = {"user": "ada", "movie": "Arrival", "text": " great ", "rating": 9}
            result = yield from runtime.start_workflow(frontend, request, book_id=1)
            client = db(cluster)
            review = yield from client.get(TABLE_REVIEWS, result["review_id"])
            movie_reviews = yield from client.get(TABLE_MOVIE_REVIEWS, "Arrival")
            return result, review["Value"], movie_reviews["Value"]

        result, review, movie_reviews = cluster.drive(flow(), limit=600.0)
        assert result["avg_rating"] == 9.0
        assert review["text"] == "great"  # text service trimmed it
        assert review["movie"] == "m-Arrival"
        assert movie_reviews == [result["review_id"]]

    def test_rating_accumulates(self, cluster):
        runtime = BokiFlowRuntime(cluster)
        frontend = register_full_movie_workflows(runtime, prefix="fm2")

        def flow():
            base = {"user": "u", "movie": "Dune", "text": "t"}
            r1 = yield from runtime.start_workflow(
                frontend, dict(base, rating=10), book_id=1
            )
            r2 = yield from runtime.start_workflow(
                frontend, dict(base, rating=4), book_id=1
            )
            return r1["avg_rating"], r2["avg_rating"]

        first, second = cluster.drive(flow(), limit=600.0)
        assert first == 10.0
        assert second == 7.0  # (10 + 4) / 2

    def test_crash_mid_graph_exactly_once(self, cluster):
        """Crash the frontend between service invocations; re-execution
        must not double-count the rating or duplicate list entries."""
        runtime = BokiFlowRuntime(cluster)
        frontend = register_full_movie_workflows(runtime, prefix="fm3")
        crash = {"armed": True}

        original_hook = runtime.fault_hook

        def hook(env, step):
            # Crash the frontend right after the rating step completed
            # (frontend steps: 0..6; rating is step 3).
            if crash["armed"] and step == 4:
                crash["armed"] = False
                raise WorkflowCrash("frontend died")

        def flow():
            runtime.fault_hook = hook
            request = {"user": "u", "movie": "Tenet", "text": "t", "rating": 8}
            wf_id = runtime.new_workflow_id()
            try:
                yield from runtime.start_workflow(
                    frontend, request, book_id=1, workflow_id=wf_id
                )
            except WorkflowCrash:
                pass
            runtime.fault_hook = original_hook
            result = yield from runtime.start_workflow(
                frontend, request, book_id=1, workflow_id=wf_id
            )
            client = db(cluster)
            rating = yield from client.get(TABLE_MOVIE_INFO, "rating:Tenet")
            movie_reviews = yield from client.get(TABLE_MOVIE_REVIEWS, "Tenet")
            return result, rating["Value"], movie_reviews["Value"]

        result, rating, reviews = cluster.drive(flow(), limit=600.0)
        assert rating == {"count": 1, "total": 8}  # not double-counted
        assert reviews == [result["review_id"]]    # no duplicate entries

    def test_runs_on_beldi_too(self, cluster):
        runtime = BeldiRuntime(cluster)
        frontend = register_full_movie_workflows(runtime, prefix="fm4")

        def flow():
            request = {"user": "u", "movie": "Heat", "text": "t", "rating": 7}
            return (yield from runtime.start_workflow(frontend, request))

        result = cluster.drive(flow(), limit=600.0)
        assert result["avg_rating"] == 7.0
