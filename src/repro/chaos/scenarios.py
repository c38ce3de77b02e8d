"""Named chaos scenarios.

Each scenario body receives a :class:`~repro.chaos.lifecycle.Run`, builds
its own cluster through it, drives client load while a
:class:`~repro.chaos.faults.FaultInjector` replays a fault plan, then
returns :meth:`~repro.chaos.lifecycle.Run.result` — the raw material for a
verdict artifact: the checks (the body's own plus those the run's record
calls for), the applied fault timeline, and a few deterministic stats.

Scenarios marked ``expect_violations`` run the same workload against the
non-fault-tolerant baseline (``repro.baselines.unsafe``) and *must* be
flagged by the checkers — they prove the checkers have teeth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.admission import BATCH, INTERACTIVE, AdaptiveLimiter
from repro.baselines.dynamodb import DynamoDBService
from repro.baselines.unsafe import UnsafeRuntime
from repro.chaos.checkers import check_exactly_once
from repro.chaos.faults import book_primary, fault
from repro.chaos.lifecycle import Run, ScenarioResult
from repro.chaos.liveness import (
    check_goodput_slo,
    overload_report,
    recovery_metrics,
)
from repro.chaos.loads import (
    BULK_COST,
    STORE_KINDS,
    gateway_store_clients,
    overload_clients,
    pin_store_spread_bulk,
    queue_load,
    register_bulk_fn,
    register_store_fn,
    store_load,
    worker_peak,
)
from repro.elastic import HysteresisPolicy, PolicyConfig
from repro.libs.bokiflow import BokiFlowRuntime
from repro.libs.bokiflow.env import WorkflowCrash
from repro.resil import RetryBudget, RetryPolicy
from repro.workloads.harness import FlashCrowdShape, run_shaped_open_loop

#: Suite selectors a scenario may be tagged with — ``python -m repro.chaos
#: run <tag>`` runs every scenario carrying it:
#: ``fast`` (the CI smoke subset); ``recovery`` (availability/RTO around a
#: fault, with or without the resilience layer); ``elastic`` (the
#: autoscaler's control loop against faults that overlap its scaling
#: decisions); ``admission`` (saturating load against the
#: admission/backpressure layer or its no-admission baseline, checking the
#: goodput SLO); ``tenant`` (multi-tenant load with per-tenant QoS,
#: checking isolation and weighted-fair shedding).
TAGS = ("fast", "recovery", "elastic", "admission", "tenant")


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    fn: Callable[[Run], ScenarioResult]
    expect_violations: bool = False
    tags: frozenset = frozenset()


SCENARIOS: Dict[str, Scenario] = {}

#: The topology most scenarios run on.
SMALL = dict(num_function_nodes=2, num_storage_nodes=3, num_sequencer_nodes=3)


def scenario(name: str, description: str, expect_violations: bool = False,
             tags=(), **params):
    """Register the decorated body under ``name``. ``params`` are bound to
    the body's keyword parameters, so one parameterised body registers
    under several names (a layer on, and its baseline with the layer off)
    and every registered ``fn`` takes just the :class:`Run`."""
    def deco(fn):
        SCENARIOS[name] = Scenario(name, description, partial(fn, **params),
                                   expect_violations, frozenset(tags))
        return fn
    return deco


def scenarios(tag: Optional[str] = None) -> List[str]:
    """Sorted scenario names: all of them, or those carrying ``tag``."""
    return sorted(name for name, s in SCENARIOS.items()
                  if tag is None or tag in s.tags)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
@scenario(
    "crash-primary-sequencer",
    "Crash the primary sequencer mid-append under store load; the failure "
    "detector seals the term and reconfigures; linearizability and metalog "
    "consistency must survive.",
)
def crash_primary_sequencer(run: Run) -> ScenarioResult:
    cluster = run.build(
        num_function_nodes=2, num_storage_nodes=3, num_sequencer_nodes=4,
        use_coord_sessions=True,
    )
    history = run.boot()
    initial_term = cluster.controller.current_term.term_id
    crash_at = 0.5
    run.inject(fault(crash_at, "crash", cluster.term.assignment(0).primary))
    # Appends stall from the crash until the session-based failure detector
    # seals the term and the controller reconfigures (~session timeout),
    # so the load must carry enough operations to ride through the stall
    # and keep operating in the new term.
    run.drive(store_load(cluster, history, num_clients=3, ops_per_client=30))
    final_term = cluster.controller.current_term.term_id
    ops_after = run.ok_ops_after(crash_at)
    return run.result(
        sanity=[
            (final_term > initial_term,
             f"no reconfiguration happened: term stayed {initial_term}"),
            (ops_after > 0, "no operation completed after the crash"),
        ],
        stats={
            "initial_term": initial_term,
            "final_term": final_term,
            "ops_ok_after_crash": ops_after,
        },
    )


@scenario(
    "partition-storage-under-load",
    "Partition one storage node away from the rest of the cluster during "
    "store load, then heal; appends stall on the replication quorum but "
    "no acknowledged write may be lost or reordered.",
)
def partition_storage_under_load(run: Run) -> ScenarioResult:
    cluster = run.build(**SMALL)
    history = run.boot()
    victim = cluster.storage_nodes[0].name
    others = sorted(set(cluster.net.nodes) - {victim})
    part_at, heal_at = 0.3, 0.9
    run.inject(
        fault(part_at, "partition_groups", [[victim], others]),
        fault(heal_at, "heal_all"),
    )
    run.drive(store_load(cluster, history, num_clients=3, ops_per_client=25))
    ops_after = run.ok_ops_after(heal_at)
    return run.result(
        sanity=[(ops_after > 0, "no operation completed after the heal")],
        stats={"ops_ok_after_heal": ops_after},
    )


@scenario(
    "storage-node-flap",
    "Crash and recover a storage node twice under load (restart hooks "
    "re-configure it into the current term); replication retries must "
    "preserve linearizability without a reconfiguration.",
)
def storage_node_flap(run: Run) -> ScenarioResult:
    cluster = run.build(**SMALL)
    history = run.boot()
    snode = cluster.storage_nodes[0]
    last_restart = 1.2
    run.inject(
        fault(0.3, "crash", snode.name),
        fault(0.6, "restart", snode.name),
        fault(0.9, "crash", snode.name),
        fault(last_restart, "restart", snode.name),
    )
    run.drive(store_load(cluster, history, num_clients=3, ops_per_client=25))
    ops_after = run.ok_ops_after(last_restart)
    return run.result(
        sanity=[
            (snode.node.crash_count == 2,
             f"expected 2 crashes, saw {snode.node.crash_count}"),
            (ops_after > 0, "no operation completed after the final restart"),
        ],
        stats={
            "storage_crashes": snode.node.crash_count,
            "ops_ok_after_final_restart": ops_after,
        },
    )


@scenario(
    "slow-primary-sequencer",
    "Degrade the primary sequencer's CPU (every message it handles takes "
    "2 ms longer) for a window; ordering slows but linearizability and "
    "metalog invariants must hold.",
    tags=("fast",),
)
def slow_primary_sequencer(run: Run) -> ScenarioResult:
    cluster = run.build(**SMALL)
    history = run.boot()
    primary = cluster.term.assignment(0).primary
    restore_at = 0.9
    run.inject(
        fault(0.2, "slowdown", primary, 2e-3),
        fault(restore_at, "slowdown", primary, 0.0),
    )
    run.drive(store_load(cluster, history, num_clients=2, ops_per_client=30))
    ops_after = run.ok_ops_after(restore_at)
    return run.result(
        sanity=[(ops_after > 0, "no operation completed after the restore")],
        stats={"ops_ok_after_restore": ops_after},
    )


# ----------------------------------------------------------------------
# BokiFlow exactly-once (and the unsafe baseline that breaks it)
# ----------------------------------------------------------------------
@scenario(
    "flow-crash-retry",
    "Crash a BokiFlow workflow mid-execution and re-execute it with the "
    "same workflow id; every database effect must apply exactly once "
    "(Figure 6a's test-and-append + idempotent writes).",
    tags=("fast",),
    runtime_cls=BokiFlowRuntime,
)
@scenario(
    "unsafe-flow-crash-retry",
    "The same crash-and-retry workload against repro.baselines.unsafe "
    "(no logging): the re-executed prefix re-applies its writes and the "
    "exactly-once checker MUST flag duplicated effects.",
    expect_violations=True,
    tags=("fast",),
    runtime_cls=UnsafeRuntime,
)
def flow_crash_retry(run: Run, runtime_cls) -> ScenarioResult:
    cluster = run.build(num_function_nodes=2)
    db = DynamoDBService(cluster.env, cluster.net, cluster.streams)
    run.boot()
    run.watch(db)
    runtime = runtime_cls(cluster)

    def body(env, arg):
        current = (yield from env.read("t", "counter")) or 0
        yield from env.write("t", "counter", current + 1)   # step 0
        yield from env.write("t", "audit", f"run-{arg}")    # step 1
        yield from env.write("t", "final", "done")          # step 2
        return (yield from env.read("t", "counter"))

    runtime.register_workflow("wf", body)

    # Crash the first execution after step 1 has applied its effect: the
    # hook fires the fault and reports it, so the plan is empty.
    injector = run.inject()

    def hook(wf_env, step):
        if step == 2 and not injector.timeline:
            injector.record("workflow_crash", wf_env.workflow_id, "before-step-2")
            raise WorkflowCrash("injected mid-workflow crash")

    runtime.fault_hook = hook
    wf_id = "chaos-wf-1"
    outcome = {}

    def flow():
        try:
            yield from runtime.start_workflow("wf", 1, book_id=1, workflow_id=wf_id)
            outcome["first"] = "completed"
        except WorkflowCrash:
            outcome["first"] = "crashed"
        outcome["result"] = yield from runtime.start_workflow(
            "wf", 1, book_id=1, workflow_id=wf_id
        )

    cluster.drive(flow(), limit=300.0)
    expected = [(wf_id, 0), (wf_id, 1), (wf_id, 2)]
    return run.result(
        checks=[check_exactly_once(db.effect_log, expected)],
        sanity=[
            (outcome.get("first") == "crashed",
             "first execution did not crash at the fault hook"),
            (outcome.get("result") is not None, "retry did not complete"),
        ],
        stats={
            "first_execution": 1.0 if outcome.get("first") == "crashed" else 0.0,
            "counter_result": float(outcome.get("result") or 0),
            "effects_applied": len(db.effect_log),
        },
        expected_effects=expected,
    )


# ----------------------------------------------------------------------
# BokiQueue under link chaos
# ----------------------------------------------------------------------
@scenario(
    "queue-link-chaos",
    "Drop, duplicate, and delay metalog broadcasts between the primary "
    "sequencer and its subscribers for the whole run while producing and "
    "consuming a 2-shard queue (with a mid-run consumer replacement); "
    "delivery must be no-loss and no-duplicate.",
    tags=("fast",),
)
def queue_link_chaos(run: Run) -> ScenarioResult:
    cluster = run.build(**SMALL)
    history = run.boot()
    primary = cluster.term.assignment(0).primary
    subscribers = sorted(
        list(cluster.engines) + [s.name for s in cluster.storage_nodes]
    )
    run.inject(*(fault(0.2, "link_fault", primary, sub, drop=0.10, dup=0.20,
                       delay=0.5e-3, symmetric=False) for sub in subscribers))

    # Pop roughly half while faults are active, then drain the rest with
    # fresh (cold-start) consumers.
    total = 40
    pushed, popped = queue_load(run, "chaos-q", book_id=1, prefix="chaos",
                                total=total, rounds=10, max_polls=50)
    return run.result(
        sanity=[(pushed == total, "producer did not finish")],
        stats={"pushed": pushed, "popped": popped},
    )


# ----------------------------------------------------------------------
# Recovery scenarios: availability + RTO around faults (repro.resil)
# ----------------------------------------------------------------------
@scenario(
    "crash-primary-under-load",
    "Crash the primary sequencer under gateway-driven store load with the "
    "resilience layer on: client retries ride through failure detection + "
    "reconfiguration, so availability stays >= 0.9 and recovery time is "
    "finite while linearizability and metalog consistency hold.",
    tags=("recovery",),
    resilient=True,
)
@scenario(
    "crash-primary-under-load-norecovery",
    "The same primary-sequencer crash without the resilience layer "
    "(single-attempt clients with a 1 s deadline): safety holds but "
    "availability degrades for the whole failure-detection window — the "
    "baseline the recovery SLO is measured against.",
    tags=("recovery",),
    resilient=False,
)
def crash_primary_under_load(run: Run, resilient: bool) -> ScenarioResult:
    cluster = run.build(
        num_function_nodes=2, num_storage_nodes=3, num_sequencer_nodes=4,
        use_coord_sessions=True,
    )
    if resilient:
        cluster.enable_resilience()
    history = run.boot()
    register_store_fn(cluster)
    # Pin every invocation to one node: all store ops go through ONE
    # engine/index, which is what BokiStore's linearizability claims.
    target = cluster.function_nodes[0]
    cluster.gateway.scheduler = lambda fn, book_id: target
    initial_term = cluster.controller.current_term.term_id
    crash_at = 0.4
    run.inject(fault(crash_at, "crash", cluster.term.assignment(0).primary))
    # Appends stall from the crash until session expiry + reconfiguration
    # (~2.1 s). Resilient clients retry 1 s attempts through the stall;
    # the baseline uses a realistic 1 s client deadline and no retries,
    # so its operations fail for the whole failure-detection window.
    run.drive(gateway_store_clients(
        cluster, history, num_clients=3, ops_per_client=24,
        timeout=None if resilient else 1.0,
    ))
    final_term = cluster.controller.current_term.term_id
    metrics = recovery_metrics(history, crash_at, kinds=STORE_KINDS)
    sanity = [
        (final_term > initial_term,
         f"no reconfiguration happened: term stayed {initial_term}"),
        (run.ok_ops_after(crash_at) > 0,
         "no operation completed after the crash"),
    ]
    if resilient:
        sanity.append((cluster.resil.counters["retries"] > 0,
                       "resilience layer never retried"))
    else:
        availability = metrics["availability"]
        sanity.append(
            (availability is not None and availability < 0.9,
             f"baseline availability {availability} not degraded: the fault "
             f"window did not overlap the load"),
        )
    return run.result(
        sanity,
        stats={"initial_term": initial_term, "final_term": final_term},
        resil_stats=resilient, recovery=metrics,
    )


@scenario(
    "coordinator-crash-midcommit",
    "Kill the coordinator of every other BokiFlow workflow right before "
    "its final commit step; with recovery enabled each workflow is "
    "re-driven from its step journal under the SAME id, so all workflows "
    "complete with exactly-once effects and availability >= 0.9.",
    tags=("fast", "recovery"),
    resilient=True,
)
@scenario(
    "coordinator-crash-midcommit-norecovery",
    "The same mid-commit coordinator crashes without recovery: crashed "
    "workflows are abandoned (never commit, effects stay a safe prefix), "
    "and availability degrades to the uncrashed fraction.",
    tags=("fast", "recovery"),
    resilient=False,
)
def coordinator_crash_midcommit(run: Run, resilient: bool) -> ScenarioResult:
    cluster = run.build(num_function_nodes=2)
    if resilient:
        cluster.enable_resilience()
    db = DynamoDBService(cluster.env, cluster.net, cluster.streams)
    history = run.boot()
    run.watch(db)
    env = cluster.env
    runtime = history.watch(BokiFlowRuntime(cluster), "flow")

    def body(wf_env, arg):
        yield from wf_env.write("t", f"{arg}-a", 1)   # step 0
        yield from wf_env.write("t", f"{arg}-b", 2)   # step 1
        yield from wf_env.write("t", f"{arg}-c", 3)   # step 2 (the commit)
        return arg

    runtime.register_workflow("wf", body)

    num_clients, per_client = 2, 4
    wf_ids = [f"wf-{c}-{j}" for c in range(num_clients) for j in range(per_client)]
    # The coordinator (the function execution driving the workflow) of
    # every even-indexed workflow dies right before its final commit
    # step, after steps 0-1 already applied their effects.
    targets = set(wf_ids[::2])
    crashed: Dict[str, float] = {}
    injector = run.inject()

    def hook(wf_env, step):
        wf = wf_env.workflow_id
        if step == 2 and wf in targets and wf not in crashed:
            crashed[wf] = env.now
            injector.record("workflow_crash", wf, "before-step-2")
            raise WorkflowCrash(f"coordinator of {wf} crashed mid-commit")

    runtime.fault_hook = hook
    completed: Dict[str, int] = {}

    def client(c: int):
        for j in range(per_client):
            wf_id = f"wf-{c}-{j}"
            try:
                result = yield from runtime.run_workflow(
                    "wf", wf_id, book_id=1, workflow_id=wf_id
                )
            except WorkflowCrash:
                continue  # baseline: the workflow is abandoned
            completed[wf_id] = 1 if result == wf_id else 0
            yield env.timeout(0.002)

    run.drive([env.process(client(c), name=f"chaos-flow-client-{c}")
               for c in range(num_clients)])

    fault_at = min(crashed.values()) if crashed else 0.0
    metrics = recovery_metrics(history, fault_at, kinds=("flow.run",))
    # A completed workflow must have applied all three steps exactly once;
    # a crashed-and-abandoned one legally leaves its step 0-1 effects
    # behind (non-duplicate extras), and must never have committed step 2.
    expected = [(wf, s) for wf in sorted(completed) for s in range(3)]
    exactly_once = check_exactly_once(db.effect_log, expected)
    if not resilient:
        applied = {tuple(e[0]) for e in db.effect_log}
        for wf in sorted(targets - set(completed)):
            if (wf, 2) in applied:
                exactly_once.violations.append(
                    f"abandoned workflow {wf} applied its commit step"
                )
    sanity = [
        (len(crashed) == len(targets),
         f"expected {len(targets)} coordinator crashes, saw {len(crashed)}"),
    ]
    if resilient:
        sanity.append((len(completed) == len(wf_ids),
                       f"only {len(completed)}/{len(wf_ids)} workflows "
                       f"completed despite recovery"))
    else:
        availability = metrics["availability"]
        sanity.append(
            (availability is not None and availability < 0.9,
             f"baseline availability {availability} not degraded"),
        )
        sanity.append((0 < len(completed) < len(wf_ids),
                       "baseline should complete only the uncrashed workflows"))
    return run.result(
        sanity, checks=[exactly_once],
        stats={
            "workflows_total": len(wf_ids),
            "workflows_completed": len(completed),
            "coordinator_crashes": len(crashed),
            "effects_applied": len(db.effect_log),
        },
        resil_stats=resilient, recovery=metrics,
        expected_effects=expected,
    )


@scenario(
    "flaky-links-retry-storm",
    "Lossy client<->gateway and gateway<->function links for a window "
    "under store load: short-attempt retries mask the drops (availability "
    ">= 0.9) while the shared retry budget keeps the storm bounded "
    "(no denied retries, no breaker lockout) and safety holds.",
    tags=("fast", "recovery"),
)
def flaky_links_retry_storm(run: Run) -> ScenarioResult:
    cluster = run.build(**SMALL)
    resil = cluster.enable_resilience()
    # A storm-sized budget: the default is tuned for rare faults, not a
    # sustained lossy window; scenarios size the budget like an operator
    # would. Deterministic — set before any traffic.
    resil.budget = RetryBudget(ratio=0.25, max_tokens=200.0, initial=50.0)
    history = run.boot()
    register_store_fn(cluster)
    target = cluster.function_nodes[0]
    cluster.gateway.scheduler = lambda fn, book_id: target
    fault_at, heal_at = 0.2, 1.4
    run.inject(
        fault(fault_at, "link_fault", "client", "gateway", drop=0.08, symmetric=True),
        fault(fault_at, "link_fault", "gateway", target.name, drop=0.05, symmetric=True),
        fault(heal_at, "clear_link_faults"),
    )
    policy = RetryPolicy(max_attempts=8, base_delay=5e-3, max_delay=0.1,
                         attempt_timeout=0.25, retry_timeouts=True)
    run.drive(gateway_store_clients(
        cluster, history, num_clients=3, ops_per_client=40, policy=policy,
    ))
    metrics = recovery_metrics(history, fault_at, kinds=STORE_KINDS)
    snapshot = resil.snapshot()
    last_invoke = max((op.t_invoke for op in history.ops), default=0.0)
    return run.result(
        sanity=[
            (last_invoke > 0.8, "load did not span the fault window"),
            (snapshot["retries"] > 0, "the lossy window caused no retries"),
            (snapshot["budget_denied"] == 0,
             f"{snapshot['budget_denied']} retries denied: budget too small "
             f"for the storm"),
        ],
        resil_stats=True, recovery=metrics,
    )


# ----------------------------------------------------------------------
# Elasticity scenarios: the autoscaler's control loop under faults
# (repro.elastic)
# ----------------------------------------------------------------------
def engine_policy(min_nodes: int, max_nodes: int,
                  cooldown_down: float) -> HysteresisPolicy:
    """The engine-fleet policy of every elastic scenario: scale out after
    2 breaching samples, in after 4, then hold ``cooldown_down`` seconds
    before the next scale-in."""
    return HysteresisPolicy(PolicyConfig(
        min_nodes=min_nodes, max_nodes=max_nodes, cooldown_down=cooldown_down,
    ))


@scenario(
    "elastic-scale-in-during-partition",
    "Light load makes the autoscaler scale the engine and storage fleets "
    "in while the very nodes it wants to decommission are partitioned "
    "away; the serialized seal-then-install decommission must preserve "
    "linearizability, queue no-loss/no-dup, and metalog consistency.",
    tags=("elastic",),
)
def elastic_scale_in_during_partition(run: Run) -> ScenarioResult:
    cluster = run.build(
        num_function_nodes=3, num_storage_nodes=4, num_sequencer_nodes=3,
        workers_per_node=4,
    )
    cluster.enable_resilience()
    auto = cluster.enable_elasticity(
        engine_policy=engine_policy(1, 3, cooldown_down=0.5),
        # Slower storage policy: its single 4 -> 3 scale-in lands inside
        # the partition window.
        storage_policy=HysteresisPolicy(PolicyConfig(
            min_nodes=3, max_nodes=4, breach_down=10, cooldown_down=1.0,
        )),
    )
    history = run.boot()
    env = cluster.env
    register_bulk_fn(cluster)

    # The scale-in victims are the highest pool ranks: func-2 first, then
    # storage-3. Partition exactly those away before the fleet shrinks.
    part_at, heal_at = 0.4, 2.0
    victims = ["func-2", "storage-3"]
    others = sorted(set(cluster.net.nodes) - set(victims))
    run.inject(
        fault(part_at, "partition_groups", [victims, others]),
        fault(heal_at, "heal_all"),
    )

    # Phase 1 (~0.5 s): mid load keeps utilization in the dead band; then
    # only a light client remains, so utilization drops under the low
    # watermark and the fleet shrinks during the partition.
    def bulk_client(n: int, think: float):
        for k in range(n):
            try:
                yield from cluster.invoke("bulk-op", k)
            except Exception:
                pass  # rerouted/timed-out invocations are the light load's risk
            yield env.timeout(think)

    busy = [env.process(bulk_client(40, 0.002), name=f"elastic-bulk-{i}")
            for i in range(6)]

    def light_client():
        while env.now < 2.6:
            try:
                yield from cluster.invoke("bulk-op", 0)
            except Exception:
                pass
            yield env.timeout(0.04)

    light = env.process(light_client(), name="elastic-bulk-light")

    # Safety vantage points, both pinned to func-0 (never decommissioned:
    # pool rank 0 is the last to leave the fleet).
    store_procs = store_load(cluster, history, num_clients=3,
                             ops_per_client=30)
    total = 30
    pushed, popped = queue_load(
        run, "elastic-q", book_id=2, prefix="elastic", total=total, rounds=8,
        max_polls=100, alongside=busy + [light] + store_procs)

    scale_ins = auto.scale_events("scale-in")
    in_window = [e for e in scale_ins if part_at <= e["t"] <= heal_at]
    removed_in_window = {n for e in in_window for n in e["removed"]}
    ops_after = run.ok_ops_after(heal_at)
    return run.result(
        sanity=[
            (bool(in_window),
             "no scale-in happened during the partition window"),
            (set(victims) <= removed_in_window,
             f"partitioned victims {victims} were not the nodes "
             f"decommissioned during the partition (got "
             f"{sorted(removed_in_window)})"),
            (auto.reconfig_failures == 0,
             f"{auto.reconfig_failures} scaling reconfigurations failed"),
            (ops_after > 0, "no operation completed after the heal"),
            (pushed == total, "producer did not finish"),
        ],
        stats={
            "final_term": cluster.controller.current_term.term_id,
            "scale_ins": len(scale_ins),
            "scale_ins_during_partition": len(in_window),
            "engines_active": len(auto.active_engines),
            "storage_active": len(auto.active_storage),
            "node_seconds": round(auto.node_seconds(), 6),
            "pushed": pushed,
            "popped": popped,
            "ops_ok_after_heal": ops_after,
        },
    )


@scenario(
    "elastic-flash-crowd-primary-crash",
    "A flash crowd drives the engine fleet from 2 to 4 nodes, then the "
    "primary sequencer crashes at peak load: the failure detector and the "
    "autoscaler race the controller through the serialized reconfiguration "
    "queue, while resilient store clients must keep availability >= 0.9 "
    "with linearizability and metalog consistency intact.",
    tags=("elastic",),
)
def elastic_flash_crowd_primary_crash(run: Run) -> ScenarioResult:
    cluster = run.build(
        num_function_nodes=2, num_spare_function_nodes=2,
        num_storage_nodes=3, num_sequencer_nodes=4,
        workers_per_node=4, use_coord_sessions=True,
    )
    cluster.enable_resilience()
    auto = cluster.enable_elasticity(
        engine_policy=engine_policy(2, 4, cooldown_down=1.0))
    history = run.boot()
    env = cluster.env
    register_store_fn(cluster)
    register_bulk_fn(cluster)
    pin_store_spread_bulk(cluster)

    initial_term = cluster.controller.current_term.term_id
    surge_at, crash_at = 0.8, 1.3
    # Crash the primary ordering the store clients' log *at crash time*:
    # the flash crowd's scale-out has already rotated the sequencer
    # assignment by then, so crash_primary resolves the victim from the
    # current term (deterministic — the autoscaler timeline is
    # seed-determined). The subscriber notes the node and term it hit.
    injector = run.inject(fault(crash_at, "crash_primary", 1))
    crashed: Dict[str, object] = {}
    injector.fault_applied.subscribe(lambda entry: crashed.update(
        primary=book_primary(cluster, 1),
        term=cluster.controller.current_term.term_id))

    # Resilient gateway store clients ride through the append stall that
    # runs from the crash until the next reconfiguration replaces the
    # dead primary (the autoscaler's post-decay scale-in or the session
    # failure detector — whichever seals first).
    store_procs = gateway_store_clients(cluster, history, num_clients=3,
                                        ops_per_client=80)
    # Base fleet (2 engines x 4 workers x 10 ms) saturates at ~800 req/s:
    # base 350/s sits in the dead band, the 1400/s peak forces 4 nodes.
    shape = FlashCrowdShape(base_rate=350, peak_rate=1400, surge_at=surge_at,
                            ramp=0.2, hold=0.8, decay=0.3)
    result = run_shaped_open_loop(
        env, lambda i: cluster.invoke("bulk-op", i), shape, duration=2.6,
        rng=cluster.streams.stream("elastic-flash"),
    )
    run.drive(store_procs)

    final_term = cluster.controller.current_term.term_id
    metrics = recovery_metrics(history, crash_at, kinds=STORE_KINDS)
    scale_outs = auto.scale_events("scale-out")
    reaction = auto.reaction_time(surge_at)
    peak_fleet = max((len(e["engines"]) for e in scale_outs), default=0)
    ops_after = run.ok_ops_after(crash_at)
    return run.result(
        sanity=[
            (bool(scale_outs), "the flash crowd triggered no scale-out"),
            (reaction is not None and reaction < 0.5,
             f"scale-out reaction to the surge was {reaction}"),
            (peak_fleet > 2, "the engine fleet never grew past its base"),
            (final_term > initial_term,
             f"no reconfiguration happened: term stayed {initial_term}"),
            (ops_after > 0, "no operation completed after the crash"),
            (cluster.resil.counters["retries"] > 0,
             "resilience layer never retried through the stall"),
        ],
        stats={
            "initial_term": initial_term,
            "final_term": final_term,
            "bulk_launched": result.extra["launched"],
            "bulk_completed": result.completed,
            "bulk_errors": result.errors,
            "scale_outs": len(scale_outs),
            "scale_ins": len(auto.scale_events("scale-in")),
            "peak_engines": peak_fleet,
            "reaction_time_s": (round(reaction, 9)
                                if reaction is not None else None),
            "node_seconds": round(auto.node_seconds(), 6),
            "ops_ok_after_crash": ops_after,
            "crashed_primary": crashed.get("primary"),
            "crashed_in_term": crashed.get("term"),
        },
        recovery=metrics,
    )


# ----------------------------------------------------------------------
# Overload scenarios: admission control and graceful degradation under
# saturating load (repro.admission)
# ----------------------------------------------------------------------
@scenario(
    "retry-storm-metastable",
    "Open-loop load at ~1.8x saturation with short client deadlines and "
    "eager retries; the adaptive limiter sheds the excess, so goodput "
    "holds >= 70% of saturation with bounded accepted latency and "
    "bounded queues while the shed clients back off on retry-after "
    "hints.",
    tags=("fast", "admission"),
    admission=True,
)
@scenario(
    "retry-storm-metastable-noadmission",
    "The same retry storm with no admission control: timed-out attempts "
    "leave zombie executions burning worker slots while their retries "
    "re-arrive, queues grow without bound, and goodput collapses — the "
    "metastable failure the goodput SLO checker must flag.",
    expect_violations=True,
    tags=("fast", "admission"),
    admission=False,
)
def retry_storm_metastable(run: Run, admission: bool) -> ScenarioResult:
    cluster = run.build(
        num_function_nodes=1, num_storage_nodes=3, num_sequencer_nodes=3,
        workers_per_node=4,
    )
    cluster.enable_resilience()
    ctrl = None
    if admission:
        # Sized for the tiny fleet: 4 workers x 10 ms saturate at ~16
        # concurrent before latency passes the 50 ms target, so the
        # limiter starts at its equilibrium instead of discovering it
        # from the default 64 mid-storm.
        ctrl = cluster.enable_admission(
            limiter=AdaptiveLimiter(initial=16.0),
        )
    history = run.boot()
    register_bulk_fn(cluster)

    # Offered load ~1.8x saturation; short per-attempt deadlines plus
    # eager retries are the storm: every timed-out attempt leaves a
    # zombie execution burning a worker slot AND re-arrives as a retry.
    workers = len(cluster.function_nodes) * 4
    saturation = workers / BULK_COST
    rate, duration = 700.0, 2.0
    # The injected condition IS the load: a timeline marker documents it
    # (and lands in the flight recorder) like any other fault.
    run.inject(fault(0.0, "mark", f"open-loop-overload-{int(rate)}rps"))
    policy = RetryPolicy(max_attempts=4, base_delay=5e-3, max_delay=0.05,
                         attempt_timeout=0.12, retry_timeouts=True)
    peaks = worker_peak(cluster)
    gen, ops = overload_clients(cluster, history, rate, duration,
                                policy=policy)
    run.drive([gen])
    run.drive(ops)

    window_start, window_end = 0.5, duration
    shed_total = ctrl.total_shed() if admission else 0
    report = overload_report(
        history, window_start, window_end, kinds=("bulk.op",),
        saturation_goodput=saturation,
        queue_peaks={
            "gateway.inflight": cluster.gateway.inflight_peak,
            "worker.depth": peaks["worker.depth"],
        },
        shed=shed_total,
        admission=ctrl.snapshot() if admission else None,
        enabled=admission,
    )
    # The degradation contract: >= 70% of saturation goodput, accepted
    # requests finishing well inside the 120 ms client deadline, queues
    # bounded near the concurrency limit. The no-admission baseline MUST
    # fail this checker — that failure is its expected violation.
    goodput = check_goodput_slo(report, min_goodput_fraction=0.7,
                                max_accepted_p99=0.25, max_queue_peak=128)
    last_invoke = max((op.t_invoke for op in history.ops), default=0.0)
    sanity = [
        (last_invoke > window_start + 1.0,
         "the open-loop load did not span the overload window"),
        (report["offered"] > 0.9 * rate * (window_end - window_start),
         "offered load fell below the open-loop rate"),
        (cluster.resil.counters["retries"] > 0,
         "the storm caused no client retries"),
    ]
    if admission:
        sanity.append((shed_total > 0,
                       "admission control never shed under saturating load"))
    return run.result(
        sanity, checks=[goodput],
        stats={
            "gateway_inflight_peak": cluster.gateway.inflight_peak,
            "worker_depth_peak": peaks["worker.depth"],
            "shed_total": shed_total,
        },
        resil_stats=True, overload=report,
    )


def _surge_cluster(run: Run):
    """The deployment both surge-beyond-capacity scenarios start from: 2
    engines + 2 spares x 4 workers behind resilience, a 2..4-engine
    autoscaler and admission control, ``store-op`` pinned and ``bulk-op``
    spread. Returns ``(cluster, autoscaler, admission controller)``."""
    cluster = run.build(
        num_function_nodes=2, num_spare_function_nodes=2,
        num_storage_nodes=3, num_sequencer_nodes=3,
        workers_per_node=4,
    )
    cluster.enable_resilience()
    auto = cluster.enable_elasticity(
        engine_policy=engine_policy(2, 4, cooldown_down=2.0),
        # Storage stays put: the surge is pure compute, and a bulk-idle
        # storage fleet must not shrink below its replication needs.
        storage_policy=HysteresisPolicy(PolicyConfig(
            min_nodes=3, max_nodes=3, breach_down=1000, cooldown_down=10.0,
        )),
    )
    ctrl = cluster.enable_admission()
    run.boot()
    register_store_fn(cluster)
    register_bulk_fn(cluster)
    pin_store_spread_bulk(cluster)
    return cluster, auto, ctrl


@scenario(
    "sustained-overload-beyond-max-nodes",
    "A sustained surge beyond what even the autoscaler's max_nodes fleet "
    "can serve: scale-out absorbs what it can (shedding stays disarmed "
    "below the ceiling), then admission control sheds batch traffic "
    "first so interactive clients keep their availability SLO while "
    "goodput holds near the max-fleet saturation point.",
    tags=("admission",),
)
def sustained_overload_beyond_max_nodes(run: Run) -> ScenarioResult:
    cluster, auto, ctrl = _surge_cluster(run)
    history, gateway = run.history, cluster.gateway

    # Max fleet (4 engines x 4 workers x 10 ms) saturates at ~1520/s;
    # the surge offers ~1800/s of BATCH work — beyond any fleet the
    # policy can build — while INTERACTIVE store clients ride along.
    workers = 4 * 4
    saturation = workers / BULK_COST
    surge_at, rate, duration = 0.3, 1800.0, 1.6
    run.inject(fault(surge_at, "mark", f"sustained-surge-{int(rate)}rps"))
    policy = RetryPolicy(max_attempts=3, base_delay=5e-3, max_delay=0.05,
                         attempt_timeout=0.5, retry_timeouts=True)
    gen, ops = overload_clients(cluster, history, rate, duration,
                                policy=policy, priority=BATCH,
                                start=surge_at)
    store_procs = gateway_store_clients(cluster, history, num_clients=3,
                                        ops_per_client=70)
    run.drive([gen] + store_procs)
    run.drive(ops)

    # Measure once the fleet is at its ceiling and the scale-out backlog
    # has drained: offered stays ~1.2x the max-fleet saturation.
    window_start, window_end = 0.8, surge_at + duration
    report = overload_report(
        history, window_start, window_end, kinds=("bulk.op",),
        saturation_goodput=saturation,
        queue_peaks={"gateway.inflight": gateway.inflight_peak},
        shed=ctrl.total_shed(),
        admission=ctrl.snapshot(),
        enabled=True,
    )
    # Graceful degradation for the interactive class: store clients keep
    # >= 90% availability through the whole surge window.
    metrics = recovery_metrics(history, surge_at, kinds=STORE_KINDS)
    scale_outs = auto.scale_events("scale-out")
    peak_fleet = max((len(e["engines"]) for e in scale_outs), default=0)
    shed_batch = ctrl.shed_by_priority.get(BATCH, 0)
    shed_interactive = ctrl.shed_by_priority.get(INTERACTIVE, 0)
    return run.result(
        checks=[check_goodput_slo(report, min_goodput_fraction=0.7,
                                  max_accepted_p99=0.5)],
        sanity=[
            (bool(scale_outs), "the surge triggered no scale-out"),
            (peak_fleet == 4,
             f"the engine fleet peaked at {peak_fleet}, not max_nodes"),
            (ctrl.total_shed() > 0,
             "admission control never shed beyond max_nodes"),
            (shed_batch > shed_interactive,
             f"batch did not shed first (batch={shed_batch}, "
             f"interactive={shed_interactive})"),
            (auto.reconfig_failures == 0,
             f"{auto.reconfig_failures} scaling reconfigurations failed"),
        ],
        stats={
            "scale_outs": len(scale_outs),
            "peak_engines": peak_fleet,
            "gateway_inflight_peak": gateway.inflight_peak,
            "shed_total": ctrl.total_shed(),
            "shed_batch": shed_batch,
            "shed_interactive": shed_interactive,
            "node_seconds": round(auto.node_seconds(), 6),
        },
        recovery=metrics, overload=report,
    )


@scenario(
    "split-brain-controller-during-scale-out",
    "The controller is partitioned away exactly when a surge needs a "
    "scale-out: every seal loses its quorum, reconfigurations fail, and "
    "admission control arms mid-reconfiguration — shedding holds goodput "
    "near the stuck fleet's saturation until the heal lets the scale-out "
    "land and the cluster recovers fully.",
    tags=("admission",),
)
def split_brain_controller_during_scale_out(run: Run) -> ScenarioResult:
    cluster, auto, ctrl = _surge_cluster(run)
    history, gateway = run.history, cluster.gateway

    # Partition the controller from everyone else just before the surge:
    # the autoscaler (running ON the controller node, sampling shared
    # state) keeps deciding to scale out, but every seal RPC is dropped —
    # each attempt fails its quorum and the fleet is stuck at 2 nodes.
    part_at, heal_at = 0.25, 1.5
    others = sorted(set(cluster.net.nodes) - {"controller"})
    run.inject(
        fault(part_at, "partition_groups", [["controller"], others]),
        fault(heal_at, "heal_all"),
    )

    # ~1.3x the stuck fleet's saturation (2 engines x 4 workers), but
    # under the 4-node fleet's — after the heal the scale-out fully
    # absorbs the load and shedding stops.
    stuck_workers = 2 * 4
    stuck_saturation = stuck_workers / BULK_COST
    surge_at, rate, duration = 0.3, 1000.0, 2.2
    policy = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.1,
                         attempt_timeout=0.5, retry_timeouts=True)
    gen, ops = overload_clients(cluster, history, rate, duration,
                                policy=policy, start=surge_at)
    store_procs = gateway_store_clients(cluster, history, num_clients=3,
                                        ops_per_client=80)
    run.drive([gen] + store_procs)
    run.drive(ops)

    report = overload_report(
        history, surge_at + 0.15, heal_at, kinds=("bulk.op",),
        saturation_goodput=stuck_saturation,
        queue_peaks={"gateway.inflight": gateway.inflight_peak},
        shed=ctrl.total_shed(),
        admission=ctrl.snapshot(),
        enabled=True,
    )
    metrics = recovery_metrics(history, part_at, kinds=STORE_KINDS)
    scale_outs = auto.scale_events("scale-out")
    healed_outs = [e for e in scale_outs if e["t"] >= heal_at]
    peak_fleet = max((len(e["engines"]) for e in scale_outs), default=2)
    ops_after = run.ok_ops_after(heal_at)
    return run.result(
        # Client-perceived latency of an eventually-accepted op includes
        # its shed-retry envelope (up to 3 attempts x 0.5 s plus
        # hint-floored backoff), so the bound asserts "every accepted op
        # finished within the retry budget" — the metastable alternative
        # is ops that never complete at all.
        checks=[check_goodput_slo(report, min_goodput_fraction=0.5,
                                  max_accepted_p99=2.0)],
        sanity=[
            (auto.reconfig_failures > 0,
             "the split-brain never failed a reconfiguration"),
            (bool(healed_outs),
             "no scale-out landed after the heal"),
            (peak_fleet == 4,
             f"the post-heal fleet peaked at {peak_fleet} engines, not 4"),
            (ctrl.total_shed() > 0,
             "admission control never shed while the fleet was stuck"),
            (ops_after > 0, "no operation completed after the heal"),
        ],
        stats={
            "reconfig_failures": auto.reconfig_failures,
            "scale_outs": len(scale_outs),
            "peak_engines": peak_fleet,
            "engines_active": len(auto.active_engines),
            "gateway_inflight_peak": gateway.inflight_peak,
            "shed_total": ctrl.total_shed(),
            "ops_ok_after_heal": ops_after,
            "final_term": cluster.controller.current_term.term_id,
        },
        recovery=metrics, overload=report,
    )


@scenario(
    "noisy-neighbor-batch-flood",
    "Two tenants share one cluster: a well-behaved interactive tenant "
    "rides under its weighted share while a flood tenant offers ~2x "
    "saturation of batch work. Weighted-fair admission must shed the "
    "flood (>= 90% of all sheds) and keep the victim's availability and "
    "latency, with goodput holding near saturation — noisy-neighbor "
    "containment as a verdict.",
    tags=("fast", "admission", "tenant"),
)
def noisy_neighbor_batch_flood(run: Run) -> ScenarioResult:
    cluster = run.build(**SMALL, workers_per_node=4)
    tenancy = cluster.enable_tenancy()
    tenancy.registry.register("victim", weight=3.0)
    tenancy.registry.register("flood", weight=1.0)
    # Sized for the fleet (2 engines x 4 workers x 10 ms saturate at
    # ~24 concurrent before latency passes the 50 ms target), so the
    # limiter starts at equilibrium instead of discovering it mid-flood.
    ctrl = cluster.enable_admission(
        limiter=AdaptiveLimiter(initial=24.0),
    )
    history = run.boot()
    register_bulk_fn(cluster)

    # The victim's steady interactive load sits well under its 3/4
    # weighted share; the flood offers ~2x the whole fleet's saturation
    # as a batch flash crowd. The injected condition IS the load: a
    # timeline marker documents it like any other fault.
    workers = 2 * 4
    saturation = workers / BULK_COST
    victim_rate, victim_duration = 150.0, 2.0
    flood_at, flood_rate, flood_duration = 0.4, 1400.0, 1.2
    run.inject(fault(flood_at, "mark", f"batch-flood-{int(flood_rate)}rps"))
    peaks = worker_peak(cluster)
    victim_gen, victim_ops = overload_clients(
        cluster, history, victim_rate, victim_duration,
        kind="victim.op", tenant="victim")
    flood_gen, flood_ops = overload_clients(
        cluster, history, flood_rate, flood_duration, priority=BATCH,
        start=flood_at, kind="flood.op", tenant="flood")
    run.drive([victim_gen, flood_gen])
    run.drive(victim_ops + flood_ops)

    # Measure inside the contended window only.
    window_start, window_end = 0.5, flood_at + flood_duration
    report = overload_report(
        history, window_start, window_end,
        kinds=("victim.op", "flood.op"),
        saturation_goodput=saturation,
        queue_peaks={
            "gateway.inflight": cluster.gateway.inflight_peak,
            "worker.depth": peaks["worker.depth"],
        },
        shed=ctrl.total_shed(),
        admission=ctrl.snapshot(),
        enabled=True,
    )
    victim_report = overload_report(history, window_start, window_end,
                                    kinds=("victim.op",))
    flood_report = overload_report(history, window_start, window_end,
                                   kinds=("flood.op",))
    fairness = tenancy.fairness_snapshot()
    # The per-tenant fairness block rides in the verdict's overload dict.
    report["tenants"] = {
        "victim": victim_report,
        "flood": flood_report,
        "fairness": fairness,
    }
    victim_avail = (victim_report["completed_ok"] / victim_report["offered"]
                    if victim_report["offered"] else 0.0)
    flood_shed_share = (
        fairness["tenants"].get("flood", {}).get("shed_share") or 0.0)
    return run.result(
        checks=[check_goodput_slo(report, min_goodput_fraction=0.7,
                                  max_accepted_p99=0.25, max_queue_peak=128)],
        sanity=[
            (report["offered"] > 0.9 * (
                victim_rate + flood_rate) * (window_end - window_start)
             * (flood_rate / (victim_rate + flood_rate)),
             "offered load fell below the flood rate"),
            (ctrl.total_shed() > 0,
             "the flood never tripped admission control"),
            (flood_shed_share >= 0.9,
             f"the flood tenant absorbed only {flood_shed_share:.2f} "
             f"of the sheds (>= 0.9 required)"),
            (victim_avail >= 0.9,
             f"victim availability {victim_avail:.2f} under the flood "
             f"(>= 0.9 required)"),
            ((victim_report["accepted_p99_s"] or 1.0) <= 0.25,
             f"victim accepted p99 {victim_report['accepted_p99_s']}s "
             f"exceeds 0.25s under the flood"),
        ],
        stats={
            "gateway_inflight_peak": cluster.gateway.inflight_peak,
            "worker_depth_peak": peaks["worker.depth"],
            "shed_total": ctrl.total_shed(),
            "flood_shed_share": round(flood_shed_share, 6),
            "victim_availability": round(victim_avail, 6),
        },
        overload=report,
    )
