"""Overload benchmark: goodput, shed rate, and accepted-latency p99 as
offered load sweeps from half to 4x the cluster's saturation point.

The graceful-degradation claim of ``repro.admission`` (ISSUE 9) as a
curve rather than a single scenario: with admission control enabled, a
fixed 4-worker cluster is offered the same open-loop ``bulk-op`` traffic
at 0.5x, 1x, 2x and 4x its analytic saturation throughput. A shedding
system should show the textbook profile — goodput rises with offered
load, plateaus at (a constant fraction of) capacity, and *stays* there
as overload deepens, while the latency of accepted requests remains
bounded and the shed rate absorbs the excess. Without admission the same
sweep collapses past saturation (see the ``retry-storm-metastable``
chaos pair); here we pin the curve the admission layer actually
delivers, as a committed perf baseline.
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
from repro.chaos.history import History
from repro.chaos.loads import BULK_COST, overload_clients, register_bulk_fn
from repro.core import BokiCluster
from repro.sim.metrics import nearest_rank

SEED = 0
WORKERS = 4
SATURATION = WORKERS / BULK_COST  # ~381 op/s for one 4-worker engine
#: Offered load as multiples of saturation: under, at, and beyond.
LOAD_FACTORS = (0.5, 1.0, 2.0, 4.0)
DURATION = 1.5
WARMUP = 0.4  # limiter convergence; measured window is [WARMUP, DURATION)
ATTEMPT_TIMEOUT = 0.25


def _label(factor: float) -> str:
    return f"x{factor:g}"


def _run_at(factor: float) -> dict:
    """One fresh same-seed cluster offered ``factor``x saturation."""
    rate = factor * SATURATION
    cluster = BokiCluster(
        num_function_nodes=1, num_storage_nodes=3, num_sequencer_nodes=3,
        workers_per_node=WORKERS, seed=SEED,
    )
    cluster.enable_admission()
    cluster.boot()
    adopt_cluster(cluster)
    env = cluster.env
    register_bulk_fn(cluster)
    history = History(env)
    gen, ops = overload_clients(cluster, history, rate, DURATION,
                                timeout=ATTEMPT_TIMEOUT)
    env.run_until(env.all_of([gen]), limit=DURATION + 2.0)
    env.run_until(env.all_of(ops), limit=DURATION + 2.0)

    offered = completed = 0
    latencies = []
    for op in history.ops:
        if not (WARMUP <= op.t_invoke < DURATION):
            continue
        offered += 1
        if op.status == "ok":
            completed += 1
            latencies.append(op.t_return - op.t_invoke)
    span = DURATION - WARMUP
    shed = cluster.admission.total_shed()
    launched = len(ops)
    return {
        "offered_rate": rate,
        "offered": offered,
        "goodput": completed / span,
        "accepted_p99": nearest_rank(sorted(latencies), 0.99),
        "shed": shed,
        "shed_rate": shed / launched,
        "limit": cluster.admission.limiter.limit,
        "inflight_peak": cluster.gateway.inflight_peak,
    }


def experiment():
    return {_label(f): _run_at(f) for f in LOAD_FACTORS}


@pytest.mark.admission
@pytest.mark.benchmark(group="overload")
def test_overload_goodput_curve(benchmark):
    runs = run_once(benchmark, experiment)

    print_table(
        "Overload: goodput vs offered load (admission on)",
        ["offered", "rate/s", "goodput/s", "frac of sat", "accepted p99",
         "shed rate", "limit", "inflight peak"],
        [[
            name,
            f"{run['offered_rate']:.0f}",
            f"{run['goodput']:.1f}",
            f"{run['goodput'] / SATURATION:.2f}",
            ms(run["accepted_p99"]) if run["accepted_p99"] else "-",
            f"{run['shed_rate']:.3f}",
            run["limit"],
            run["inflight_peak"],
        ] for name, run in runs.items()],
    )

    metrics = {"saturation.goodput_per_s": info(SATURATION)}
    for name, run in runs.items():
        metrics[f"{name}.goodput_per_s"] = metric(
            run["goodput"], unit="op/s", better="higher")
        metrics[f"{name}.accepted_p99_ms"] = lat_ms(run["accepted_p99"])
        metrics[f"{name}.shed_rate"] = metric(
            run["shed_rate"], unit="frac", better="lower")
        metrics[f"{name}.offered"] = info(run["offered"])
    emit_artifact(
        "overload_goodput",
        metrics,
        title="Overload: goodput/shed/p99 vs offered load with admission control",
        config={
            "workers": WORKERS, "bulk_cost_s": BULK_COST,
            "saturation_per_s": SATURATION, "load_factors": list(LOAD_FACTORS),
            "duration_s": DURATION, "warmup_s": WARMUP,
            "attempt_timeout_s": ATTEMPT_TIMEOUT,
        },
        seed=SEED,
    )

    under, at, over, deep = (runs[_label(f)] for f in LOAD_FACTORS)
    # Transparency: below capacity admission sheds nothing and adds no
    # latency — the under-capacity run is untouched by the layer.
    assert under["shed"] == 0
    assert under["goodput"] == pytest.approx(under["offered"] / (DURATION - WARMUP))
    # The degradation contract at and beyond saturation: goodput holds at
    # >= 70% of the analytic ceiling however deep the overload...
    for run in (at, over, deep):
        assert run["goodput"] >= 0.7 * SATURATION
    # ...and does not collapse as load quadruples past capacity.
    assert deep["goodput"] >= 0.9 * over["goodput"]
    # Accepted requests stay fast: shedding, not queueing.
    for run in runs.values():
        assert run["accepted_p99"] is not None
        assert run["accepted_p99"] <= ATTEMPT_TIMEOUT
    # The excess is absorbed by sheds, monotonically in offered load.
    assert deep["shed_rate"] > over["shed_rate"] > 0.0
