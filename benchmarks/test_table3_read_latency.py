"""Table 3: LogBook read latencies (§7.1).

Paper (8 function / 8 storage nodes, append-and-read workload):

                local engine hit   local engine miss   remote engine
    median      0.12 ms            0.57 ms             0.79 ms
    99% tail    0.72 ms            1.48 ms             2.90 ms

The claims: the local-hit path never leaves the function node (~0.1 ms
class), a cache miss adds one storage round trip, and a remote engine adds
another network hop on top.
"""

import pytest

from benchmarks._common import emit_artifact, make_cluster, ms, print_table, recorder_metrics, run_once
from repro.workloads.microbench import append_and_read

DURATION = 0.2
CLIENTS = 16


def scenario(**kwargs):
    cluster = make_cluster(
        num_function_nodes=8, num_storage_nodes=8, index_engines_per_log=4,
        obs=True,  # the committed baseline carries the attribution block
    )
    results = append_and_read(cluster, num_clients=CLIENTS, duration=DURATION, **kwargs)
    return results["read"]


def experiment():
    return {
        "local hit": scenario(),
        "local miss": scenario(evict_between_reads=True),
        "remote engine": scenario(force_remote_engine=True),
    }


@pytest.mark.benchmark(group="table3")
def test_table3_read_latencies(benchmark):
    results = run_once(benchmark, experiment)

    rows = [
        ["median", *(ms(results[k].median_latency()) for k in results)],
        ["99% tail", *(ms(results[k].p99_latency()) for k in results)],
    ]
    print_table("Table 3: LogBook read latencies", ["", *results.keys()], rows)

    metrics = {}
    for label, result in results.items():
        metrics.update(recorder_metrics(label.replace(" ", "_"), result.latencies))
    emit_artifact(
        "table3_read_latency",
        metrics,
        title="Table 3: LogBook read latencies",
        config={
            "function_nodes": 8, "storage_nodes": 8, "index_engines_per_log": 4,
            "clients": CLIENTS, "duration_s": DURATION,
        },
    )

    hit = results["local hit"].median_latency()
    miss = results["local miss"].median_latency()
    remote = results["remote engine"].median_latency()

    # Claim 1: strict latency hierarchy.
    assert hit < miss < remote
    # Claim 2: cache hits are in the ~hundred-microsecond class.
    assert hit < 0.4e-3
    # Claim 3: a miss costs several times a hit (paper: ~4.75x).
    assert miss > 2 * hit
    # Claim 4: tails follow the same ordering.
    assert results["local hit"].p99_latency() < results["remote engine"].p99_latency()
