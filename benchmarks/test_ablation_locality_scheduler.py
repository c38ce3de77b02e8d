"""Ablation: locality-aware function scheduling.

§4.4 suggests scheduling functions "on nodes where their data is likely to
be cached"; Table 6 quantifies what ignoring locality costs at the read
path. This ablation closes the loop at the *scheduler*: the same
function-based read workload under (a) round-robin placement and (b) the
LocalityScheduler that places invocations on index-holding nodes. With
locality, reads are served by the local engine (no extra hop, warm cache).
"""

import pytest

from benchmarks._common import (
    emit_artifact,
    info,
    lat_ms,
    make_cluster,
    ms,
    print_table,
    run_once,
    throughput,
)
from repro.faas.scheduling import enable_locality_scheduling
from repro.workloads.harness import run_closed_loop

CLIENTS = 24
DURATION = 0.25
BOOKS = [5, 6, 7, 8]


def run_variant(locality: bool):
    cluster = make_cluster(
        num_function_nodes=8, num_storage_nodes=3, index_engines_per_log=2,
        workers_per_node=16,
    )
    scheduler = enable_locality_scheduling(cluster) if locality else None

    def reader_fn(ctx, arg):
        book = cluster.logbook_for(ctx)
        record = yield from book.check_tail(tag=4)
        return record.data if record else None

    cluster.register_function("read-tail", reader_fn)

    def seed():
        for book_id in BOOKS:
            book = cluster.logbook(book_id)
            yield from book.append("payload-" + "x" * 512, tags=[4])

    cluster.drive(seed(), limit=60.0)

    rng = cluster.streams.stream("locality-mix")

    def make_op(client, _measure):
        def op():
            book_id = BOOKS[rng.randrange(len(BOOKS))]
            yield from cluster.gateway.external_invoke(
                cluster.client_node, "read-tail", book_id=book_id
            )

        return op

    result = run_closed_loop(cluster.env, make_op, CLIENTS, DURATION)
    remote_reads = sum(e.remote_reads for e in cluster.engines.values())
    return result, remote_reads, scheduler


def experiment():
    return {
        "round-robin": run_variant(False),
        "locality-aware": run_variant(True),
    }


@pytest.mark.benchmark(group="ablation-locality")
def test_ablation_locality_scheduler(benchmark):
    results = run_once(benchmark, experiment)

    rows = []
    for name, (result, remote_reads, scheduler) in results.items():
        rows.append(
            [
                name,
                f"{result.throughput / 1e3:.1f}K",
                ms(result.median_latency()),
                str(remote_reads),
            ]
        )
    print_table(
        "Ablation: function placement vs LogBook read locality",
        ["scheduler", "t-put", "read p50", "remote engine reads"],
        rows,
    )

    metrics = {}
    for name, (result, remote_reads, scheduler) in results.items():
        slug = name.replace("-", "_")
        metrics[f"{slug}.throughput"] = throughput(result.throughput)
        metrics[f"{slug}.p50_ms"] = lat_ms(result.median_latency())
        metrics[f"{slug}.remote_reads"] = info(float(remote_reads))
    emit_artifact(
        "ablation_locality_scheduler",
        metrics,
        title="Ablation: locality-aware function scheduling",
        config={"clients": CLIENTS, "duration_s": DURATION, "books": BOOKS},
    )

    rr, rr_remote, _ = results["round-robin"]
    loc, loc_remote, scheduler = results["locality-aware"]
    # Claim 1: locality scheduling eliminates remote engine reads.
    assert loc_remote == 0
    assert rr_remote > 0
    # Claim 2: it improves read latency and throughput.
    assert loc.median_latency() < rr.median_latency()
    assert loc.throughput > rr.throughput
    # Claim 3: every book-bound invocation was placed locally.
    assert scheduler.locality_rate == 1.0
