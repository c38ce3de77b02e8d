"""Figure 14: sensitivity to reconfiguration frequency (§7.5).

Paper: with reconfigurations triggered every 1/3/10/30 seconds (new
sequencer trio chosen from 8 pre-provisioned nodes each time), log *read*
latencies are barely affected, while *append* tail latencies (p99/p99.9)
grow significantly at high frequency. Throughput is unaffected at every
tested frequency.

Scaled: the run is 3 s of virtual time with reconfigurations every
0.1/0.3/1.0 s (and a no-reconfiguration control), appends:reads = 1:4.
"""

import pytest

from benchmarks._common import emit_artifact, info, lat_ms, make_cluster, ms, print_table, run_once
from repro.core import BokiConfig
from repro.sim.kernel import Interrupt
from repro.sim.metrics import percentile
from repro.workloads.microbench import append_latency_timeline

DURATION = 3.0
FREQUENCIES = {"every 0.1s": 0.1, "every 0.3s": 0.3, "every 1s": 1.0, "none": None}


def run_frequency(period):
    cluster = make_cluster(
        num_function_nodes=4, num_storage_nodes=4, num_sequencer_nodes=8,
        workers_per_node=16,
    )
    env = cluster.env
    rng = cluster.streams.stream("fig14-seqpick")

    def reconfigure_loop():
        try:
            while True:
                yield env.timeout(period)
                names = [f"seq-{i}" for i in range(8)]
                rng.shuffle(names)
                chosen, spares = names[:3], names[3:]
                # The incoming trio must be reachable for seal + install;
                # afterwards the idle spares are fenced off (partitioned
                # from the serving cluster, though still connected to each
                # other) until a later round picks them again.
                cluster.net.heal_all()
                yield from cluster.controller.reconfigure(sequencer_names=chosen)
                active = sorted(set(cluster.net.nodes) - set(spares))
                cluster.net.partition_groups([spares, active])
        except Interrupt:
            return

    proc = None
    if period is not None:
        proc = env.process(reconfigure_loop(), name="fig14-reconfig")
    series = append_latency_timeline(cluster, num_clients=16, duration=DURATION, read_ratio=4)
    if proc is not None and proc.is_alive:
        proc.interrupt("done")
    return {
        "append": [lat for _, lat in series["append"].samples],
        "read": [lat for _, lat in series["read"].samples],
        "reconfigs": cluster.controller.reconfig_count,
    }


def experiment():
    return {name: run_frequency(period) for name, period in FREQUENCIES.items()}


@pytest.mark.benchmark(group="fig14")
def test_fig14_reconfiguration_frequency(benchmark):
    results = run_once(benchmark, experiment)

    rows = []
    for name, data in results.items():
        rows.append(
            [
                name,
                ms(percentile(data["read"], 99)),
                ms(percentile(data["read"], 99.9)),
                ms(percentile(data["append"], 99)),
                ms(percentile(data["append"], 99.9)),
                str(data["reconfigs"]),
            ]
        )
    print_table(
        "Figure 14: latency sensitivity to reconfiguration frequency",
        ["frequency", "read p99", "read p99.9", "append p99", "append p99.9", "#reconfigs"],
        rows,
    )

    metrics = {}
    for name, data in results.items():
        slug = name.replace(" ", "_").replace(".", "p")
        metrics[f"{slug}.read_p99_ms"] = lat_ms(percentile(data["read"], 99))
        metrics[f"{slug}.append_p99_ms"] = lat_ms(percentile(data["append"], 99))
        metrics[f"{slug}.append_p999_ms"] = lat_ms(percentile(data["append"], 99.9))
        metrics[f"{slug}.reconfigs"] = info(float(data["reconfigs"]))
    emit_artifact(
        "fig14_reconfig_freq",
        metrics,
        title="Figure 14: sensitivity to reconfiguration frequency",
        config={"duration_s": DURATION, "frequencies": sorted(FREQUENCIES)},
    )

    base = results["none"]
    frequent = results["every 0.1s"]
    # Claim 1: frequent reconfigurations significantly inflate append tail
    # latencies.
    assert percentile(frequent["append"], 99.9) > 3 * percentile(base["append"], 99.9)
    # Claim 2: read tails are much less affected than append tails.
    read_blowup = percentile(frequent["read"], 99) / percentile(base["read"], 99)
    append_blowup = percentile(frequent["append"], 99) / percentile(base["append"], 99)
    assert read_blowup < append_blowup
    # Claim 3: throughput is not affected (total completions within 20%
    # of the control at every frequency).
    base_ops = len(base["append"]) + len(base["read"])
    for name, data in results.items():
        ops = len(data["append"]) + len(data["read"])
        assert ops > 0.8 * base_ops
    # Claim 4: reconfigurations actually happened at roughly the intended
    # cadence.
    assert results["every 0.1s"]["reconfigs"] >= 15
    assert results["every 1s"]["reconfigs"] in (2, 3)
