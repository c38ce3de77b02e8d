"""Table 9: scaling read-only transactions with LogBook engines (§7.5).

Paper: Retwis GetTimeline (read-only txns) under a fixed NewTweet write
rate; adding function nodes 8 -> 48 (each engine indexing the log) scales
read throughput 4.63x with 3 fixed storage nodes — reads are served by the
engines' indices and caches, not the storage fleet.

Scaled: 2/4/8 function nodes, fixed write rate, read-only txn clients
proportional to engines.
"""

import pytest

from benchmarks._common import emit_artifact, make_cluster, print_table, run_once, throughput
from repro.libs.bokistore import BokiStore
from repro.workloads.harness import run_closed_loop
from repro.workloads.retwis import RetwisBokiStore

ENGINE_COUNTS = [2, 4, 8]
READERS_PER_ENGINE = 12
WRITE_RATE = 300.0  # NewTweet/s, fixed across scales
DURATION = 0.25
NUM_USERS = 60


def run_scale(num_engines):
    cluster = make_cluster(
        num_function_nodes=num_engines,
        num_storage_nodes=3,
        index_engines_per_log=num_engines,
        workers_per_node=24,
    )
    env = cluster.env
    engines = list(cluster.engines.values())

    def backend_for(engine):
        return RetwisBokiStore(
            BokiStore(cluster.logbook(60, engine=engine)), num_users=NUM_USERS
        )

    init = backend_for(engines[0])
    cluster.drive(init.init_users(), limit=3600.0)

    def writer():
        backend = backend_for(engines[0])
        rng = cluster.streams.stream("t9-writes")
        i = 0
        while True:
            yield env.timeout(rng.expovariate(WRITE_RATE))
            env.process(
                backend.new_tweet(rng.randrange(NUM_USERS), f"t{i}"),
                name="t9-write",
            )
            i += 1

    def make_reader(index, _measure):
        backend = backend_for(engines[index % num_engines])
        rng = cluster.streams.stream(f"t9-read-{index}")
        return lambda: backend.get_timeline(rng.randrange(NUM_USERS))

    # The fixed write rate runs in the background for as long as the
    # cluster does.
    env.process(writer(), name="t9-writer")
    result = run_closed_loop(env, make_reader, READERS_PER_ENGINE * num_engines, DURATION)
    return result.throughput


def experiment():
    return {n: run_scale(n) for n in ENGINE_COUNTS}


@pytest.mark.benchmark(group="table9")
def test_table9_scaling_logbook_engines(benchmark):
    results = run_once(benchmark, experiment)

    base = results[ENGINE_COUNTS[0]]
    rows = [
        ["T-put (txn/s)", *(f"{results[n]:,.0f}" for n in ENGINE_COUNTS)],
        ["Normalized", *(f"{results[n] / base:.2f}x" for n in ENGINE_COUNTS)],
    ]
    print_table(
        "Table 9: read-only txn throughput vs LogBook engines",
        ["", *(f"{n} engines" for n in ENGINE_COUNTS)],
        rows,
    )

    emit_artifact(
        "table9_engine_scaling",
        {
            f"engines{n}.read_txn_throughput": throughput(results[n])
            for n in ENGINE_COUNTS
        },
        title="Table 9: scaling read-only txns with LogBook engines",
        config={
            "engine_counts": ENGINE_COUNTS, "readers_per_engine": READERS_PER_ENGINE,
            "write_rate": WRITE_RATE, "duration_s": DURATION,
        },
    )

    # Claim: read throughput scales with engines under a fixed write rate
    # (paper: 4.63x from 8 -> 48 engines, i.e. ~0.77 scaling efficiency;
    # we require >= 2.4x from a 4x engine increase).
    assert results[ENGINE_COUNTS[-1]] > 2.4 * base
    # And scaling is monotone.
    assert results[ENGINE_COUNTS[0]] < results[ENGINE_COUNTS[1]] < results[ENGINE_COUNTS[2]]
