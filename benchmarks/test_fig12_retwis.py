"""Figure 12: BokiStore vs MongoDB on Retwis (§7.3).

Paper (8 function / 3 storage nodes; MongoDB with 3 replicas):

- 12a: BokiStore achieves 1.18-1.25x higher throughput at 64-192 clients;
- 12b: at 192 clients, BokiStore's non-transactional reads are *slower*
  (log replay: 1.47 vs 0.86 ms UserLogin) but its transactions are up to
  2.3x faster (GetTimeline 3.35 vs 7.57 ms).
"""

import pytest

from benchmarks._common import (
    emit_artifact,
    lat_ms,
    make_cluster,
    ms,
    print_table,
    run_once,
    throughput,
)
from benchmarks._retwis_common import run_retwis_bokistore, run_retwis_mongo
from repro.baselines.mongodb import MongoDBService

CLIENT_COUNTS = [32, 64, 96]
DURATION = 0.25
NUM_USERS = 100


def run_boki(num_clients):
    cluster = make_cluster(
        num_function_nodes=8, num_storage_nodes=3, index_engines_per_log=8,
        workers_per_node=32,
    )
    return run_retwis_bokistore(
        cluster, num_clients=num_clients, duration=DURATION, num_users=NUM_USERS
    )


def run_mongo(num_clients):
    cluster = make_cluster(
        num_function_nodes=8, num_storage_nodes=3, workers_per_node=32
    )
    MongoDBService(cluster.env, cluster.net, cluster.streams)
    return run_retwis_mongo(
        cluster, num_clients=num_clients, duration=DURATION, num_users=NUM_USERS
    )


def experiment():
    return {
        "BokiStore": {n: run_boki(n) for n in CLIENT_COUNTS},
        "MongoDB": {n: run_mongo(n) for n in CLIENT_COUNTS},
    }


KIND_LABELS = {
    "login": "UserLogin (non-txn read)",
    "profile": "UserProfile (non-txn read)",
    "timeline": "GetTimeline (read-only txn)",
    "tweet": "NewTweet (read-write txn)",
}


@pytest.mark.benchmark(group="fig12")
def test_fig12_retwis_bokistore_vs_mongodb(benchmark):
    results = run_once(benchmark, experiment)

    # 12a: throughput.
    rows = []
    for system in ["MongoDB", "BokiStore"]:
        rows.append(
            [system]
            + [f"{results[system][n].throughput / 1e3:.2f}K" for n in CLIENT_COUNTS]
        )
    ratio_row = ["ratio"] + [
        f"{results['BokiStore'][n].throughput / results['MongoDB'][n].throughput:.2f}x"
        for n in CLIENT_COUNTS
    ]
    rows.append(ratio_row)
    print_table(
        "Figure 12a: Retwis throughput",
        ["", *(f"{n} clients" for n in CLIENT_COUNTS)],
        rows,
    )

    # 12b: latency breakdown at the highest client count.
    top = CLIENT_COUNTS[-1]
    rows = []
    for kind in ["login", "profile", "timeline", "tweet"]:
        mongo = results["MongoDB"][top].extra[kind]
        boki = results["BokiStore"][top].extra[kind]
        rows.append(
            [KIND_LABELS[kind], ms(mongo.median()), ms(boki.median()),
             ms(mongo.p99()), ms(boki.p99())]
        )
    print_table(
        f"Figure 12b: latencies at {top} clients",
        ["request type", "Mongo p50", "Boki p50", "Mongo p99", "Boki p99"],
        rows,
    )

    metrics = {}
    for system in ("MongoDB", "BokiStore"):
        slug = system.lower()
        for n in CLIENT_COUNTS:
            metrics[f"{slug}.c{n}.throughput"] = throughput(results[system][n].throughput)
        for kind in KIND_LABELS:
            rec = results[system][top].extra[kind]
            metrics[f"{slug}.{kind}.p50_ms"] = lat_ms(rec.median())
            metrics[f"{slug}.{kind}.p99_ms"] = lat_ms(rec.p99())
    emit_artifact(
        "fig12_retwis",
        metrics,
        title="Figure 12: BokiStore vs MongoDB on Retwis",
        config={"client_counts": CLIENT_COUNTS, "duration_s": DURATION, "num_users": NUM_USERS},
    )

    # Claim 1: BokiStore's overall throughput beats MongoDB at every scale
    # (paper: 1.18-1.25x).
    for n in CLIENT_COUNTS:
        assert results["BokiStore"][n].throughput > results["MongoDB"][n].throughput

    mongo_top, boki_top = results["MongoDB"][top], results["BokiStore"][top]
    # Claim 2: non-transactional reads are slower on BokiStore (log replay).
    assert boki_top.extra["login"].median() > mongo_top.extra["login"].median()
    # Claim 3: transactions are faster on BokiStore (paper: up to 2.3x).
    assert boki_top.extra["timeline"].median() < mongo_top.extra["timeline"].median()
    assert boki_top.extra["tweet"].median() < mongo_top.extra["tweet"].median()
