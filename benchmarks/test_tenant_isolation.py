"""Tenant isolation benchmark: victim latency under a noisy neighbor.

The QoS claim of ``repro.tenant`` (ISSUE 10) as a committed perf
baseline: a well-behaved interactive tenant ("victim", pinned to its own
engine slice with 3x weight) is measured twice on same-seed clusters —
once alone, once while an unpinned "aggressor" tenant floods the shared
engines with ~3x their saturation in batch work. Tenant-aware placement
plus weighted-fair admission must keep the victim's p99 within 1.2x of
its solo run with full availability, while the aggressor absorbs >= 90%
of all sheds — noisy-neighbor containment, quantified and gated.
"""

import pytest

from benchmarks._common import (
    adopt_cluster,
    emit_artifact,
    info,
    lat_ms,
    metric,
    ms,
    print_table,
    run_once,
)
from repro.admission import BATCH, AdaptiveLimiter
from repro.core import BokiCluster
from repro.faas.scheduling import enable_tenant_scheduling

SEED = 0
WORKERS_PER_NODE = 4
#: Virtual seconds of one bulk-op on a worker slot (10 ms handler +
#: dispatch overhead) — same constant as the overload benchmarks.
BULK_COST = 0.0105
#: One engine's saturation: the victim's pinned slice and the shared
#: slice are one engine each.
ENGINE_SATURATION = WORKERS_PER_NODE / BULK_COST
VICTIM_RATE = 150.0
AGGRESSOR_RATE = 1200.0  # ~3x the shared slice's saturation
DURATION = 1.5
WARMUP = 0.4  # limiter convergence; measured window is [WARMUP, DURATION)


def _build():
    """Same-seed cluster with both tenants registered; only the offered
    load differs between the solo and contended runs."""
    cluster = BokiCluster(
        num_function_nodes=2, num_storage_nodes=3, num_sequencer_nodes=3,
        workers_per_node=WORKERS_PER_NODE, seed=SEED,
    )
    hub = cluster.enable_tenancy()
    hub.registry.register("victim", weight=3.0, pinned=True)
    hub.registry.register("aggressor", weight=1.0)
    # Sized for the fleet (2 engines x 4 workers x 10 ms saturate at ~24
    # concurrent) so the limiter starts at equilibrium.
    ctrl = cluster.enable_admission(
        limiter=AdaptiveLimiter(initial=24.0),
    )
    cluster.boot()
    adopt_cluster(cluster)
    scheduler = enable_tenant_scheduling(cluster)
    env = cluster.env

    def bulk(ctx, arg):
        yield env.timeout(0.01)
        return arg

    cluster.register_function("bulk-op", bulk)
    return cluster, hub, ctrl, scheduler


def _clients(cluster, tenant, rate, duration, priority="interactive"):
    """Open-loop bulk-op arrivals for one tenant; returns the generator
    process, the per-op process list, and the mutable op records
    (``[t_invoke, ok, latency]``). The invocation carries ``book_id=1``
    so the tenant scheduler can recover the tenant from its log space."""
    env = cluster.env
    rng = cluster.streams.stream(f"tenant-bench-{tenant}")
    ops, records = [], []

    def one_op(i):
        record = [env.now, False, None]
        records.append(record)
        try:
            yield from cluster.invoke("bulk-op", i, book_id=1,
                                      priority=priority, tenant=tenant)
        except Exception:
            pass
        else:
            record[1] = True
            record[2] = env.now - record[0]

    def generator():
        for i in range(int(rate * duration)):
            ops.append(env.process(one_op(i), name=f"{tenant}-op-{i}"))
            yield env.timeout((0.9 + 0.2 * rng.random()) / rate)

    return env.process(generator(), name=f"{tenant}-gen"), ops, records


def _windowed(records):
    """Availability and p99 of the ops invoked inside the window."""
    offered = ok = 0
    latencies = []
    for t_invoke, succeeded, latency in records:
        if not (WARMUP <= t_invoke < DURATION):
            continue
        offered += 1
        if succeeded:
            ok += 1
            latencies.append(latency)
    latencies.sort()
    rank = min(len(latencies) - 1, max(0, int(0.99 * len(latencies) + 0.5) - 1))
    return {
        "offered": offered,
        "ok": ok,
        "availability": ok / offered if offered else 0.0,
        "p99": latencies[rank] if latencies else None,
    }


def _run(contended):
    cluster, hub, ctrl, scheduler = _build()
    env = cluster.env
    gen, ops, victim_records = _clients(
        cluster, "victim", VICTIM_RATE, DURATION)
    gens, all_ops = [gen], list(ops)
    aggressor_records = []
    if contended:
        agen, aops, aggressor_records = _clients(
            cluster, "aggressor", AGGRESSOR_RATE, DURATION, priority=BATCH)
        gens.append(agen)
        all_ops.extend(aops)
    env.run_until(env.all_of(gens), limit=DURATION + 5.0)
    env.run_until(env.all_of(all_ops), limit=DURATION + 5.0)

    out = {"victim": _windowed(victim_records)}
    if contended:
        out["aggressor"] = _windowed(aggressor_records)
    snap = hub.fairness_snapshot()
    out["fairness"] = snap
    out["shed_total"] = ctrl.total_shed()
    out["placed"] = scheduler.placed
    out["fallbacks"] = scheduler.fallbacks
    return out


def experiment():
    return {"solo": _run(contended=False), "contended": _run(contended=True)}


@pytest.mark.tenant
@pytest.mark.benchmark(group="tenant")
def test_tenant_isolation(benchmark):
    runs = run_once(benchmark, experiment)
    solo, contended = runs["solo"], runs["contended"]
    ratio = contended["victim"]["p99"] / solo["victim"]["p99"]
    tenants = contended["fairness"]["tenants"]
    aggressor_shed_share = tenants["aggressor"]["shed_share"] or 0.0

    print_table(
        "Tenant isolation: victim under a batch-flood neighbor",
        ["run", "victim p99", "victim avail", "aggressor ok", "sheds",
         "aggressor shed share"],
        [
            ["solo", ms(solo["victim"]["p99"]),
             f"{solo['victim']['availability']:.3f}", "-",
             solo["shed_total"], "-"],
            ["contended", ms(contended["victim"]["p99"]),
             f"{contended['victim']['availability']:.3f}",
             contended["aggressor"]["ok"], contended["shed_total"],
             f"{aggressor_shed_share:.3f}"],
        ],
    )

    emit_artifact(
        "tenant_isolation",
        {
            "solo.victim_p99_ms": lat_ms(solo["victim"]["p99"]),
            "contended.victim_p99_ms": lat_ms(contended["victim"]["p99"]),
            "contended.p99_ratio": metric(ratio, unit="x", better="lower"),
            "contended.victim_availability": metric(
                contended["victim"]["availability"], unit="frac",
                better="higher"),
            "contended.aggressor_shed_share": metric(
                aggressor_shed_share, unit="frac", better="higher"),
            "contended.aggressor_goodput_per_s": metric(
                contended["aggressor"]["ok"] / (DURATION - WARMUP),
                unit="op/s", better="higher"),
            "contended.sheds": info(contended["shed_total"]),
        },
        title="Tenant isolation: victim p99 vs a noisy batch-flood neighbor",
        config={
            "workers_per_node": WORKERS_PER_NODE, "bulk_cost_s": BULK_COST,
            "victim_rate": VICTIM_RATE, "aggressor_rate": AGGRESSOR_RATE,
            "duration_s": DURATION, "warmup_s": WARMUP,
            "victim": {"weight": 3.0, "pinned": True},
            "aggressor": {"weight": 1.0, "pinned": False},
        },
        seed=SEED,
    )

    # The isolation contract (ISSUE 10 acceptance): the victim's p99
    # under the flood stays within 1.2x of its solo run...
    assert ratio <= 1.2, f"victim p99 ratio {ratio:.3f} exceeds 1.2x"
    # ...at full availability (its under-share traffic is never shed)...
    assert contended["victim"]["availability"] >= 0.999
    assert tenants["victim"]["shed"] == 0
    # ...while the aggressor absorbs >= 90% of the sheds without being
    # starved (it still gets roughly its slice's saturation throughput).
    assert contended["shed_total"] > 0
    assert aggressor_shed_share >= 0.9
    assert contended["aggressor"]["ok"] > 0.5 * ENGINE_SATURATION * (
        DURATION - WARMUP)
    # Placement did the isolating: invocations were tenant-routed.
    assert contended["placed"] > 0
