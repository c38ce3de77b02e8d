"""Table 5: the importance of aux-data log replay optimization (§7.5).

Paper (Retwis throughput in Op/s over increasing workload durations):

- optimization disabled: 1,565 -> 939 -> unmeasurable (replay grows with
  the log; longer runs accumulate more object writes);
- aux data in a dedicated Redis: ~9.3-11.0K (works, but every aux access
  is a network round trip);
- aux data in Boki's record cache: ~10.9-11.4K, ~1.17x over Redis, and
  robust to run length.
"""

import pytest

from benchmarks._common import emit_artifact, kops, make_cluster, print_table, run_once, throughput
from benchmarks._retwis_common import run_retwis_bokistore
from repro.baselines.redis import RedisClient, RedisService, redis_aux_channel

DURATIONS = [0.15, 0.45]
CLIENTS = 32
NUM_USERS = 40
#: Pre-existing updates per object: models the paper's long-running
#: deployment (its Table 5 sweeps 1-30 minute runs; objects accumulate
#: writes, and the disabled variant must replay all of them per read).
HISTORY = 50


def run_variant(variant, duration):
    cluster = make_cluster(
        num_function_nodes=8, num_storage_nodes=3, index_engines_per_log=4,
        workers_per_node=24,
    )
    kwargs = {}
    if variant == "disabled":
        # Readers can neither use nor fill any cached view.
        def no_aux(store):
            def aux_get(record):
                if False:
                    yield
                return None

            def aux_put(seqnum, aux):
                if False:
                    yield
                return None

            store.aux_get = aux_get
            store.aux_put = aux_put

        kwargs["aux_channel"] = no_aux
    elif variant == "redis":
        RedisService(cluster.env, cluster.net, cluster.streams)
        client = RedisClient(cluster.net, cluster.client_node)
        kwargs["aux_channel"] = lambda store: redis_aux_channel(store, client)
    return run_retwis_bokistore(
        cluster, num_clients=CLIENTS, duration=duration, num_users=NUM_USERS,
        history=HISTORY, **kwargs
    )


def experiment():
    out = {}
    for variant in ("disabled", "redis", "boki"):
        for duration in DURATIONS:
            out[(variant, duration)] = run_variant(variant, duration)
    return out


LABELS = {
    "disabled": "Optimization disabled",
    "redis": "AuxData w/ Redis",
    "boki": "AuxData w/ Boki",
}


@pytest.mark.benchmark(group="table5")
def test_table5_auxdata_importance(benchmark):
    results = run_once(benchmark, experiment)

    rows = [
        [LABELS[variant], *(f"{results[(variant, d)].throughput:,.0f}" for d in DURATIONS)]
        for variant in ("disabled", "redis", "boki")
    ]
    print_table(
        "Table 5: Retwis throughput (Op/s) by aux-data backend",
        ["", *(f"{d:.2f}s run" for d in DURATIONS)],
        rows,
    )

    emit_artifact(
        "table5_auxdata",
        {
            f"{variant}.d{duration}.throughput": throughput(
                results[(variant, duration)].throughput
            )
            for variant in ("disabled", "redis", "boki")
            for duration in DURATIONS
        },
        title="Table 5: aux-data replay optimization",
        config={
            "durations_s": DURATIONS, "clients": CLIENTS,
            "num_users": NUM_USERS, "history": HISTORY,
        },
    )

    short, long = DURATIONS
    # Claim 1: without the replay optimization throughput is far lower
    # (paper: ~7x below at 1 min, worse after).
    assert results[("boki", short)].throughput > 3 * results[("disabled", short)].throughput
    # Claim 2: disabled degrades with run length (longer log to replay).
    assert (
        results[("disabled", long)].throughput
        < 0.9 * results[("disabled", short)].throughput
    )
    # Claim 3: Boki's co-located aux beats the Redis round trips (paper:
    # 1.17x).
    assert results[("boki", long)].throughput > 1.05 * results[("redis", long)].throughput
    # Claim 4: both cached variants are robust to run length (within 25%).
    for variant in ("redis", "boki"):
        ratio = results[(variant, long)].throughput / results[(variant, short)].throughput
        assert ratio > 0.75
