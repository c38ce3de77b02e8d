"""Figure 13: BokiStore vs Cloudburst on get/put (§7.3).

Paper (8 function / 8 storage nodes): BokiStore achieves 1.46-2.01x higher
*get* throughput, and put throughput from 0.89x (light load) to 1.23x
(192 clients, where the Cloudburst KVS saturates) — while providing
sequential consistency and transactions vs Cloudburst's causal gets.

Gets and puts are measured in separate runs (as in the paper's two
charts); the get run mixes in 10% puts so caches see realistic churn.
BokiStore's KV puts use blind full-object writes.
"""

import pytest

from benchmarks._common import (
    emit_artifact,
    kops,
    lat_ms,
    make_cluster,
    ms,
    print_table,
    run_once,
    throughput,
)
from repro.baselines.cloudburst import CloudburstClient, CloudburstService
from repro.libs.bokistore import BokiStore
from repro.workloads.harness import run_closed_loop

CLIENT_COUNTS = [24, 48, 96]
DURATION = 0.2
NUM_KEYS = 64
GET_RUN_PUT_SHARE = 0.1


def _run(make_op, env, num_clients, mode):
    """The run's ``mode`` ops ("get" or "put") that ended inside the
    measurement window: their latencies and their rate."""
    result = run_closed_loop(env, make_op, num_clients, DURATION)
    recorder = result.extra[mode]
    return {"recorder": recorder, "tput": recorder.count / DURATION}


def run_bokistore(num_clients, mode):
    cluster = make_cluster(
        num_function_nodes=8, num_storage_nodes=8, index_engines_per_log=8,
        workers_per_node=32,
    )
    log_id = cluster.term.log_for_book(70)
    engines = [e for e in cluster.engines.values() if e.indexes(log_id)]
    rng = cluster.streams.stream("kv-mix")
    env = cluster.env
    stores = {}

    def store_for(i):
        if i not in stores:
            stores[i] = BokiStore(cluster.logbook(70, engine=engines[i % len(engines)]))
        return stores[i]

    def init():
        for k in range(NUM_KEYS):
            yield from store_for(0).put(f"key-{k}", {"v": 0})

    cluster.drive(init(), limit=3600.0)

    def make_op(client, measure):
        store = store_for(client)

        def op():
            key = f"key-{rng.randrange(NUM_KEYS)}"
            started = env.now
            do_put = mode == "put" or (mode == "get" and rng.random() < GET_RUN_PUT_SHARE)
            if do_put:
                yield from store.put(key, {"v": 1})
                measure("put", started)
            else:
                yield from store.get_object(key)
                measure("get", started)

        return op

    return _run(make_op, env, num_clients, mode)


def run_cloudburst(num_clients, mode):
    cluster = make_cluster(num_function_nodes=8, num_storage_nodes=8, workers_per_node=32)
    CloudburstService(cluster.env, cluster.net, cluster.streams)
    rng = cluster.streams.stream("kv-mix")
    env = cluster.env

    def init():
        client = CloudburstClient(cluster.net, cluster.client_node)
        for k in range(NUM_KEYS):
            yield from client.put(f"key-{k}", 0)

    cluster.drive(init(), limit=3600.0)

    def make_op(client_index, measure):
        node = cluster.function_nodes[client_index % 8].node
        client = CloudburstClient(cluster.net, node)

        def op():
            key = f"key-{rng.randrange(NUM_KEYS)}"
            started = env.now
            do_put = mode == "put" or (mode == "get" and rng.random() < GET_RUN_PUT_SHARE)
            if do_put:
                yield from client.put(key, 1)
                measure("put", started)
            else:
                yield from client.get(key)
                measure("get", started)

        return op

    return _run(make_op, env, num_clients, mode)


def experiment():
    out = {}
    for mode in ("get", "put"):
        out[mode] = {
            "Cloudburst": {n: run_cloudburst(n, mode) for n in CLIENT_COUNTS},
            "BokiStore": {n: run_bokistore(n, mode) for n in CLIENT_COUNTS},
        }
    return out


@pytest.mark.benchmark(group="fig13")
def test_fig13_bokistore_vs_cloudburst(benchmark):
    results = run_once(benchmark, experiment)

    for mode in ("get", "put"):
        rows = []
        for system in ("Cloudburst", "BokiStore"):
            rows.append(
                [system]
                + [
                    f"{kops(results[mode][system][n]['tput'])} "
                    f"(p50 {ms(results[mode][system][n]['recorder'].median())})"
                    for n in CLIENT_COUNTS
                ]
            )
        ratio = [
            f"{results[mode]['BokiStore'][n]['tput'] / results[mode]['Cloudburst'][n]['tput']:.2f}x"
            for n in CLIENT_COUNTS
        ]
        rows.append(["ratio", *ratio])
        print_table(
            f"Figure 13: {mode} throughput (median latency)",
            ["", *(f"{n} clients" for n in CLIENT_COUNTS)],
            rows,
        )

    metrics = {}
    for mode in ("get", "put"):
        for system in ("Cloudburst", "BokiStore"):
            slug = system.lower()
            for n in CLIENT_COUNTS:
                cell = results[mode][system][n]
                metrics[f"{slug}.{mode}.c{n}.throughput"] = throughput(cell["tput"])
                metrics[f"{slug}.{mode}.c{n}.p50_ms"] = lat_ms(cell["recorder"].median())
    emit_artifact(
        "fig13_cloudburst",
        metrics,
        title="Figure 13: BokiStore vs Cloudburst on get/put",
        config={"client_counts": CLIENT_COUNTS, "duration_s": DURATION, "num_keys": NUM_KEYS},
    )

    top = CLIENT_COUNTS[-1]

    def tput(mode, system, n):
        return results[mode][system][n]["tput"]

    # Claim 1: BokiStore's get throughput clearly exceeds Cloudburst's,
    # and the gap widens with concurrency (paper: 1.46x -> 2.01x).
    for n in CLIENT_COUNTS:
        assert tput("get", "BokiStore", n) > 1.1 * tput("get", "Cloudburst", n)
    assert (
        tput("get", "BokiStore", top) / tput("get", "Cloudburst", top)
        > tput("get", "BokiStore", CLIENT_COUNTS[0]) / tput("get", "Cloudburst", CLIENT_COUNTS[0]) * 0.9
    )
    # Claim 2: puts are near parity at light load (paper: 0.89x) and
    # BokiStore pulls ahead as Cloudburst saturates (paper: 1.23x).
    assert tput("put", "BokiStore", CLIENT_COUNTS[0]) > 0.6 * tput("put", "Cloudburst", CLIENT_COUNTS[0])
    assert tput("put", "BokiStore", top) > tput("put", "Cloudburst", top)
