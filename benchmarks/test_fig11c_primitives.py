"""Figure 11c: Beldi primitive-operation microbenchmark (§7.2).

Paper: Read is similar everywhere (~2 ms, one DynamoDB get). Write and
CondWrite cost more under logging. Invoke shows the largest gap: well
below 1 ms unsafe, 3.8 ms BokiFlow (5 LogBook appends), 19 ms Beldi (the
same 5 log appends, but each costing multiple DynamoDB updates).
"""

import pytest

from benchmarks._common import emit_artifact, make_cluster, ms, print_table, recorder_metrics, run_once
from benchmarks._workflow_common import SYSTEMS
from repro.workloads.primitives import measure_primitives, register_primitive_workflows

PRIMITIVES = ["read", "write", "condwrite", "invoke"]


def experiment():
    out = {}
    for system_name, runtime_class in SYSTEMS.items():
        cluster = make_cluster(
            num_function_nodes=8,
            num_storage_nodes=3,
            index_engines_per_log=8,
            with_dynamodb=True,
            obs=True,  # the committed baseline carries the attribution block
        )
        runtime = runtime_class(cluster)
        register_primitive_workflows(runtime)
        out[system_name] = measure_primitives(runtime, ops_per_workflow=25, workflows=4)
    return out


@pytest.mark.benchmark(group="fig11c")
def test_fig11c_primitive_operations(benchmark):
    results = run_once(benchmark, experiment)

    rows = []
    for system_name, recorders in results.items():
        rows.append(
            [system_name]
            + [f"{ms(recorders[p].median())} ({ms(recorders[p].p99())})" for p in PRIMITIVES]
        )
    print_table(
        "Figure 11c: Beldi primitive ops — median (p99)",
        ["", *PRIMITIVES],
        rows,
    )

    metrics = {}
    for system_name, recorders in results.items():
        slug = system_name.lower().replace(" ", "_")
        for primitive in PRIMITIVES:
            metrics.update(recorder_metrics(f"{slug}.{primitive}", recorders[primitive]))
    emit_artifact(
        "fig11c_primitives",
        metrics,
        title="Figure 11c: Beldi primitive operations",
        config={
            "function_nodes": 8, "storage_nodes": 3, "index_engines_per_log": 8,
            "ops_per_workflow": 25, "workflows": 4,
        },
    )

    unsafe, beldi, boki = (
        results["Unsafe baseline"],
        results["Beldi"],
        results["BokiFlow"],
    )

    # Claim 1: Read is within ~2x across all three systems (unlogged).
    reads = [r["read"].median() for r in results.values()]
    assert max(reads) < 2.5 * min(reads)
    # Claim 2: Invoke shows the largest gap; Beldi >> BokiFlow >> unsafe.
    assert beldi["invoke"].median() > 3 * boki["invoke"].median()
    assert boki["invoke"].median() > 2 * unsafe["invoke"].median()
    # Claim 3: unsafe Invoke is sub-millisecond (Nightcore-fast).
    assert unsafe["invoke"].median() < 1e-3
    # Claim 4: BokiFlow Invoke lands in the low-millisecond class
    # (paper: 3.8 ms).
    assert 1e-3 < boki["invoke"].median() < 10e-3
    # Claim 5: Beldi's Write also pays more than BokiFlow's.
    assert beldi["write"].median() > boki["write"].median()
