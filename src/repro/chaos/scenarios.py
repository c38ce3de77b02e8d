"""Named chaos scenarios.

Each scenario builds its own cluster from the given seed, drives client
load while a :class:`~repro.chaos.faults.FaultInjector` replays a fault
plan, then runs the offline checkers. Scenarios return the raw material
for a verdict artifact: the checks, the applied fault timeline, and a few
deterministic stats.

Scenarios marked ``expect_violations`` run the same workload against the
non-fault-tolerant baseline (``repro.baselines.unsafe``) and *must* be
flagged by the checkers — they prove the checkers have teeth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.baselines.dynamodb import DynamoDBService
from repro.chaos.checkers import (
    CheckResult,
    check_exactly_once,
    check_metalog,
    check_queue_delivery,
    check_store_linearizability,
)
from repro.chaos.faults import FaultInjector, FaultPlan
from repro.chaos.history import History
from repro.chaos.liveness import (
    check_goodput_slo,
    check_recovery_slo,
    overload_report,
    recovery_metrics,
)
from repro.core.cluster import BokiCluster
from repro.libs.bokiqueue.queue import BokiQueue
from repro.libs.bokistore.store import BokiStore


@dataclass
class ScenarioResult:
    checks: List[CheckResult]
    timeline: List[dict]
    stats: Dict[str, float] = field(default_factory=dict)
    #: Liveness metrics (availability + RTO) for recovery scenarios;
    #: None for pure-safety scenarios. Serialized into schema-2 verdicts.
    recovery: Optional[dict] = None
    #: Online monitor verdict (repro.monitor): the incremental in-sim
    #: monitors' view of the same guarantees the offline checkers audit,
    #: plus freshness/reconciliation summaries and any fired alerts.
    #: None when monitoring was disabled for the run.
    online: Optional[dict] = None
    #: Goodput/degradation metrics (repro.admission) for overload
    #: scenarios (:func:`repro.chaos.liveness.overload_report`); None for
    #: everything else. Serialized into schema-2 verdicts.
    overload: Optional[dict] = None


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
    fn: Callable[[int], ScenarioResult]
    expect_violations: bool = False
    tags: frozenset = frozenset()


SCENARIOS: Dict[str, Scenario] = {}


def _scenario(name: str, description: str, expect_violations: bool = False,
              tags=()):
    def deco(fn):
        SCENARIOS[name] = Scenario(name, description, fn, expect_violations,
                                   frozenset(tags))
        return fn
    return deco


def scenarios(tag: Optional[str] = None) -> List[str]:
    """Sorted scenario names: all of them, or those carrying ``tag``."""
    return sorted(name for name, s in SCENARIOS.items()
                  if tag is None or tag in s.tags)


# ----------------------------------------------------------------------
# Shared load helpers
# ----------------------------------------------------------------------
def _store_load(cluster: BokiCluster, history: History, num_clients: int = 3,
                ops_per_client: int = 25, num_keys: int = 4,
                think_base: float = 0.02, book_id: int = 1):
    """Client processes doing put/get on shared keys through ONE engine.

    All clients share an engine because BokiStore's linearizability claim
    is per-index: cross-engine reads only get read-your-writes/monotonic
    reads (§4.4), which a linearizability checker would rightly reject.
    """
    env = cluster.env
    engine = cluster.engines["func-0"]
    rng = cluster.streams.stream("chaos-load")

    def client(i: int):
        store = BokiStore(cluster.logbook(book_id, engine=engine))
        store.history = history
        store.client_name = f"client-{i}"
        for j in range(ops_per_client):
            key = f"obj-{j % num_keys}"
            try:
                if rng.random() < 0.5:
                    yield from store.put(key, {"writer": f"c{i}", "n": j})
                else:
                    yield from store.get_object(key)
            except Exception:
                # The op stays indeterminate in the history; the client
                # moves on, as a retrying application would.
                pass
            yield env.timeout(think_base + rng.random() * think_base)

    return [env.process(client(i), name=f"chaos-client-{i}")
            for i in range(num_clients)]


def _drive_all(cluster: BokiCluster, procs, limit: float = 300.0) -> None:
    cluster.env.run_until(cluster.env.all_of(procs), limit=limit)


def _sanity(conditions: List) -> CheckResult:
    """Scenario self-check: did the faults actually overlap the load?

    A scenario whose workload finishes before its fault window closes is
    not testing what it claims, even if every guarantee checker passes —
    so overlap failures are verdict failures, not silent no-ops.
    """
    violations = [message for ok, message in conditions if not ok]
    return CheckResult("scenario-sanity", violations, len(conditions))


def _ok_ops_after(history: History, t: float) -> int:
    return sum(1 for op in history.ops if op.status == "ok" and op.t_invoke >= t)


def _base_stats(cluster: BokiCluster, history: History) -> Dict[str, float]:
    return {
        "virtual_time_s": round(cluster.env.now, 6),
        "ops_recorded": len(history),
        "messages_sent": cluster.net.messages_sent,
    }


# ----------------------------------------------------------------------
# Online monitoring (repro.monitor)
# ----------------------------------------------------------------------
#: Module-level toggle consulted by every scenario; ``runner.run_scenario``
#: overrides it per call. Monitors observe, never perturb — checks, stats,
#: and timelines are byte-identical either way — so the default is on and
#: committed verdict goldens carry the online verdicts.
MONITORING = True

#: The MonitorHub of the most recent monitored scenario run. Scenarios
#: discard their cluster when they return; this handle is how the CLI
#: reaches the flight-recorder snapshots after ``run_scenario``.
LAST_HUB = None


def _monitor(cluster: BokiCluster, scenario: str, seed: int):
    """Enable the online monitors + alerting on ``cluster`` (unless the
    module toggle is off); call before ``boot()`` so the metalog monitor
    sees every entry from index 0."""
    global LAST_HUB
    LAST_HUB = None
    if not MONITORING:
        return None
    LAST_HUB = cluster.enable_monitoring(
        context={"scenario": scenario, "seed": seed}
    )
    return LAST_HUB


def _attach(hub, *objects) -> None:
    """Have the hub (if monitoring is on) watch scenario-local tap
    sources: a BokiQueue, the DynamoDB model, a FaultInjector."""
    if hub is not None:
        hub.attach(*objects)


def _online(cluster: BokiCluster, drained: bool = True,
            expected_effects=None) -> Optional[dict]:
    """Finalize the online monitors and return their verdict document."""
    hub = cluster.monitor
    if hub is None:
        return None
    hub.finish(drained=drained, expected_effects=expected_effects)
    return hub.verdict()


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
@_scenario(
    "crash-primary-sequencer",
    "Crash the primary sequencer mid-append under store load; the failure "
    "detector seals the term and reconfigures; linearizability and metalog "
    "consistency must survive.",
)
def crash_primary_sequencer(seed: int) -> ScenarioResult:
    cluster = BokiCluster(
        num_function_nodes=2, num_storage_nodes=3, num_sequencer_nodes=4,
        seed=seed, use_coord_sessions=True,
    )
    hub = _monitor(cluster, "crash-primary-sequencer", seed)
    cluster.boot()
    history = History(cluster.env)
    initial_term = cluster.controller.current_term.term_id
    primary = cluster.term.assignment(0).primary
    crash_at = 0.5
    plan = FaultPlan().crash(crash_at, primary)
    injector = FaultInjector(cluster.env, cluster.net, plan)
    _attach(hub, injector)
    injector.start()
    # Appends stall from the crash until the session-based failure detector
    # seals the term and the controller reconfigures (~session timeout),
    # so the load must carry enough operations to ride through the stall
    # and keep operating in the new term.
    procs = _store_load(cluster, history, num_clients=3, ops_per_client=30)
    _drive_all(cluster, procs, limit=300.0)
    final_term = cluster.controller.current_term.term_id
    ops_after = _ok_ops_after(history, crash_at)
    checks = [
        check_store_linearizability(history),
        check_metalog(cluster),
        _sanity([
            (final_term > initial_term,
             f"no reconfiguration happened: term stayed {initial_term}"),
            (ops_after > 0, "no operation completed after the crash"),
        ]),
    ]
    stats = _base_stats(cluster, history)
    stats["initial_term"] = initial_term
    stats["final_term"] = final_term
    stats["ops_ok_after_crash"] = ops_after
    return ScenarioResult(checks, injector.timeline, stats,
                          online=_online(cluster))


@_scenario(
    "partition-storage-under-load",
    "Partition one storage node away from the rest of the cluster during "
    "store load, then heal; appends stall on the replication quorum but "
    "no acknowledged write may be lost or reordered.",
)
def partition_storage_under_load(seed: int) -> ScenarioResult:
    cluster = BokiCluster(
        num_function_nodes=2, num_storage_nodes=3, num_sequencer_nodes=3,
        seed=seed,
    )
    hub = _monitor(cluster, "partition-storage-under-load", seed)
    cluster.boot()
    history = History(cluster.env)
    victim = cluster.storage_nodes[0].name
    others = sorted(set(cluster.net.nodes) - {victim})
    part_at, heal_at = 0.3, 0.9
    plan = (
        FaultPlan()
        .partition_groups(part_at, [[victim], others])
        .heal_all(heal_at)
    )
    injector = FaultInjector(cluster.env, cluster.net, plan)
    _attach(hub, injector)
    injector.start()
    procs = _store_load(cluster, history, num_clients=3, ops_per_client=25)
    _drive_all(cluster, procs, limit=300.0)
    ops_after = _ok_ops_after(history, heal_at)
    checks = [
        check_store_linearizability(history),
        check_metalog(cluster),
        _sanity([
            (len(injector.timeline) == 2, "partition/heal did not both fire"),
            (ops_after > 0, "no operation completed after the heal"),
        ]),
    ]
    stats = _base_stats(cluster, history)
    stats["ops_ok_after_heal"] = ops_after
    return ScenarioResult(checks, injector.timeline, stats,
                          online=_online(cluster))


@_scenario(
    "storage-node-flap",
    "Crash and recover a storage node twice under load (restart hooks "
    "re-configure it into the current term); replication retries must "
    "preserve linearizability without a reconfiguration.",
)
def storage_node_flap(seed: int) -> ScenarioResult:
    cluster = BokiCluster(
        num_function_nodes=2, num_storage_nodes=3, num_sequencer_nodes=3,
        seed=seed,
    )
    hub = _monitor(cluster, "storage-node-flap", seed)
    cluster.boot()
    history = History(cluster.env)
    snode = cluster.storage_nodes[0]
    # Recovery: records survive the crash (durable disk); the restart hook
    # re-installs the term so progress reporting resumes.
    snode.node.restart_hooks.append(lambda n, s=snode: s.configure(s.term_config))
    last_restart = 1.2
    plan = (
        FaultPlan()
        .crash(0.3, snode.name)
        .restart(0.6, snode.name)
        .crash(0.9, snode.name)
        .restart(last_restart, snode.name)
    )
    injector = FaultInjector(cluster.env, cluster.net, plan)
    _attach(hub, injector)
    injector.start()
    procs = _store_load(cluster, history, num_clients=3, ops_per_client=25)
    _drive_all(cluster, procs, limit=300.0)
    ops_after = _ok_ops_after(history, last_restart)
    checks = [
        check_store_linearizability(history),
        check_metalog(cluster),
        _sanity([
            (snode.node.crash_count == 2,
             f"expected 2 crashes, saw {snode.node.crash_count}"),
            (len(injector.timeline) == 4, "not all crash/restart events fired"),
            (ops_after > 0, "no operation completed after the final restart"),
        ]),
    ]
    stats = _base_stats(cluster, history)
    stats["storage_crashes"] = snode.node.crash_count
    stats["ops_ok_after_final_restart"] = ops_after
    return ScenarioResult(checks, injector.timeline, stats,
                          online=_online(cluster))


@_scenario(
    "slow-primary-sequencer",
    "Degrade the primary sequencer's CPU (every message it handles takes "
    "2 ms longer) for a window; ordering slows but linearizability and "
    "metalog invariants must hold.",
    tags=("fast",),
)
def slow_primary_sequencer(seed: int) -> ScenarioResult:
    cluster = BokiCluster(
        num_function_nodes=2, num_storage_nodes=3, num_sequencer_nodes=3,
        seed=seed,
    )
    hub = _monitor(cluster, "slow-primary-sequencer", seed)
    cluster.boot()
    history = History(cluster.env)
    primary = cluster.term.assignment(0).primary
    restore_at = 0.9
    plan = (
        FaultPlan()
        .slowdown(0.2, primary, 2e-3)
        .slowdown(restore_at, primary, 0.0)
    )
    injector = FaultInjector(cluster.env, cluster.net, plan)
    _attach(hub, injector)
    injector.start()
    procs = _store_load(cluster, history, num_clients=2, ops_per_client=30)
    _drive_all(cluster, procs, limit=300.0)
    ops_after = _ok_ops_after(history, restore_at)
    checks = [
        check_store_linearizability(history),
        check_metalog(cluster),
        _sanity([
            (len(injector.timeline) == 2, "slowdown/restore did not both fire"),
            (ops_after > 0, "no operation completed after the restore"),
        ]),
    ]
    stats = _base_stats(cluster, history)
    stats["ops_ok_after_restore"] = ops_after
    return ScenarioResult(checks, injector.timeline, stats,
                          online=_online(cluster))


# ----------------------------------------------------------------------
# BokiFlow exactly-once (and the unsafe baseline that breaks it)
# ----------------------------------------------------------------------
def _flow_crash_retry(seed: int, runtime_cls, scenario: str) -> ScenarioResult:
    cluster = BokiCluster(num_function_nodes=2, seed=seed)
    hub = _monitor(cluster, scenario, seed)
    db = DynamoDBService(cluster.env, cluster.net, cluster.streams)
    _attach(hub, db)
    cluster.boot()
    runtime = runtime_cls(cluster)

    def body(env, arg):
        current = (yield from env.read("t", "counter")) or 0
        yield from env.write("t", "counter", current + 1)   # step 0
        yield from env.write("t", "audit", f"run-{arg}")    # step 1
        yield from env.write("t", "final", "done")          # step 2
        return (yield from env.read("t", "counter"))

    runtime.register_workflow("wf", body)

    # Crash the first execution after step 1 has applied its effect.
    state = {"crashed": False}

    def hook(step):
        from repro.libs.bokiflow.env import WorkflowCrash
        if step == 2 and not state["crashed"]:
            state["crashed"] = True
            raise WorkflowCrash("injected mid-workflow crash")

    runtime.fault_hook = hook
    wf_id = "chaos-wf-1"
    outcome = {}

    def flow():
        from repro.libs.bokiflow.env import WorkflowCrash
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
    checks = [
        check_exactly_once(db.effect_log, expected),
        _sanity([
            (outcome.get("first") == "crashed",
             "first execution did not crash at the fault hook"),
            (outcome.get("result") is not None, "retry did not complete"),
        ]),
    ]
    stats = {
        "virtual_time_s": round(cluster.env.now, 6),
        "first_execution": 1.0 if outcome.get("first") == "crashed" else 0.0,
        "counter_result": float(outcome.get("result") or 0),
        "effects_applied": len(db.effect_log),
    }
    timeline = [{"t": 0.0, "action": "fault_hook",
                 "args": ["crash-before-step-2-first-execution"]}]
    return ScenarioResult(checks, timeline, stats,
                          online=_online(cluster, expected_effects=expected))


@_scenario(
    "flow-crash-retry",
    "Crash a BokiFlow workflow mid-execution and re-execute it with the "
    "same workflow id; every database effect must apply exactly once "
    "(Figure 6a's test-and-append + idempotent writes).",
    tags=("fast",),
)
def flow_crash_retry(seed: int) -> ScenarioResult:
    from repro.libs.bokiflow import BokiFlowRuntime
    return _flow_crash_retry(seed, BokiFlowRuntime, "flow-crash-retry")


@_scenario(
    "unsafe-flow-crash-retry",
    "The same crash-and-retry workload against repro.baselines.unsafe "
    "(no logging): the re-executed prefix re-applies its writes and the "
    "exactly-once checker MUST flag duplicated effects.",
    expect_violations=True,
    tags=("fast",),
)
def unsafe_flow_crash_retry(seed: int) -> ScenarioResult:
    from repro.baselines.unsafe import UnsafeRuntime
    return _flow_crash_retry(seed, UnsafeRuntime, "unsafe-flow-crash-retry")


# ----------------------------------------------------------------------
# BokiQueue under link chaos
# ----------------------------------------------------------------------
@_scenario(
    "queue-link-chaos",
    "Drop, duplicate, and delay metalog broadcasts between the primary "
    "sequencer and its subscribers for the whole run while producing and "
    "consuming a 2-shard queue (with a mid-run consumer replacement); "
    "delivery must be no-loss and no-duplicate.",
    tags=("fast",),
)
def queue_link_chaos(seed: int) -> ScenarioResult:
    cluster = BokiCluster(
        num_function_nodes=2, num_storage_nodes=3, num_sequencer_nodes=3,
        seed=seed,
    )
    hub = _monitor(cluster, "queue-link-chaos", seed)
    cluster.boot()
    env = cluster.env
    history = History(env)
    engine = cluster.engines["func-0"]
    queue = BokiQueue(cluster.logbook(1, engine=engine), "chaos-q", num_shards=2)
    queue.history = history
    _attach(hub, queue)
    primary = cluster.term.assignment(0).primary
    subscribers = sorted(
        list(cluster.engines) + [s.name for s in cluster.storage_nodes]
    )
    plan = FaultPlan()
    for sub in subscribers:
        plan.link_fault(0.2, primary, sub, drop=0.10, dup=0.20, delay=0.5e-3,
                        symmetric=False)
    injector = FaultInjector(env, cluster.net, plan)
    _attach(hub, injector)
    injector.start()

    total = 40
    produced = []

    def producer_proc():
        producer = queue.producer()
        for i in range(total):
            value = f"msg-{i:04d}"
            yield from producer.push(value)
            produced.append(value)
            yield env.timeout(0.02)

    got: Dict[int, int] = {0: 0, 1: 0}

    def consumer_proc(shard: int, rounds: int):
        consumer = queue.consumer(shard)
        for _ in range(rounds):
            value = yield from consumer.pop_wait(poll_interval=0.01, max_polls=50)
            if value is None:
                return
            got[shard] += 1

    # Phase 1: pop roughly half while faults are active; consumer 0 is
    # then REPLACED by a fresh instance (cold start: rebuilds its shard
    # view from the log and aux caches).
    phase1 = [
        env.process(producer_proc(), name="chaos-producer"),
        env.process(consumer_proc(0, 10), name="chaos-consumer-0"),
        env.process(consumer_proc(1, 10), name="chaos-consumer-1"),
    ]
    _drive_all(cluster, phase1, limit=300.0)

    def drain_proc(shard: int):
        consumer = queue.consumer(shard)  # fresh: no local view
        while True:
            value = yield from consumer.pop()
            if value is None:
                return
            got[shard] += 1

    phase2 = [env.process(drain_proc(s), name=f"chaos-drain-{s}") for s in (0, 1)]
    _drive_all(cluster, phase2, limit=300.0)

    checks = [
        check_queue_delivery(history, drained=True),
        check_metalog(cluster),
        _sanity([
            (len(injector.timeline) == len(subscribers),
             "not every link fault was installed"),
            (len(produced) == total, "producer did not finish"),
        ]),
    ]
    stats = _base_stats(cluster, history)
    stats["pushed"] = len(produced)
    stats["popped"] = got[0] + got[1]
    return ScenarioResult(checks, injector.timeline, stats,
                          online=_online(cluster, drained=True))


# ----------------------------------------------------------------------
# Recovery scenarios: availability + RTO around faults (repro.resil)
# ----------------------------------------------------------------------
def _register_store_fn(cluster: BokiCluster) -> None:
    """Deploy ``store-op``: a function doing one BokiStore put/get on the
    LogBook co-located with its node's engine."""
    def store_op(ctx, arg):
        store = BokiStore(cluster.logbook_for(ctx))
        if arg["op"] == "put":
            yield from store.put(arg["key"], arg["value"])
            return arg["value"]
        view = yield from store.get_object(arg["key"])
        return view.as_dict() if view.exists else None

    cluster.register_function("store-op", store_op)


def _gateway_store_clients(cluster: BokiCluster, history: History,
                           num_clients: int = 3, ops_per_client: int = 24,
                           timeout: Optional[float] = None, policy=None,
                           book_id: int = 1):
    """Clients invoking ``store-op`` through the gateway, recording a
    client-side history op per invocation (the vantage point availability
    is measured from).

    Each client owns one key: retried puts are at-least-once at the log
    level, and a late duplicate append must not land after a *newer*
    write to the same key — single-writer keys make the client's own
    sequential order the only order, which retries preserve. The
    gateway's scheduler must be pinned to one node by the scenario
    (linearizability is per-index, §4.4).
    """
    env = cluster.env
    rng = cluster.streams.stream("chaos-load")

    def client(i: int):
        key = f"obj-{i}"
        name = f"client-{i}"
        for j in range(ops_per_client):
            if rng.random() < 0.8:
                value = {"writer": f"c{i}", "n": j}
                op = history.invoke(name, "store.put", key, value)
                arg = {"op": "put", "key": key, "value": value}
            else:
                value = None
                op = history.invoke(name, "store.get", key)
                arg = {"op": "get", "key": key}
            try:
                result = yield from cluster.invoke(
                    "store-op", arg, book_id=book_id,
                    timeout=timeout, policy=policy,
                )
            except Exception as exc:
                history.fail(op, type(exc).__name__)
            else:
                history.ok(op, result)
            yield env.timeout(0.015 + rng.random() * 0.015)

    return [env.process(client(i), name=f"chaos-client-{i}")
            for i in range(num_clients)]


def _crash_primary_under_load(seed: int, resilient: bool) -> ScenarioResult:
    scenario = ("crash-primary-under-load" if resilient
                else "crash-primary-under-load-norecovery")
    cluster = BokiCluster(
        num_function_nodes=2, num_storage_nodes=3, num_sequencer_nodes=4,
        seed=seed, use_coord_sessions=True,
    )
    if resilient:
        cluster.enable_resilience()
    hub = _monitor(cluster, scenario, seed)
    cluster.boot()
    history = History(cluster.env)
    _register_store_fn(cluster)
    # Pin every invocation to one node: all store ops go through ONE
    # engine/index, which is what BokiStore's linearizability claims.
    target = cluster.function_nodes[0]
    cluster.gateway.scheduler = lambda fn, book_id: target
    initial_term = cluster.controller.current_term.term_id
    primary = cluster.term.assignment(0).primary
    crash_at = 0.4
    plan = FaultPlan().crash(crash_at, primary)
    injector = FaultInjector(cluster.env, cluster.net, plan)
    _attach(hub, injector)
    injector.start()
    # Appends stall from the crash until session expiry + reconfiguration
    # (~2.1 s). Resilient clients retry 1 s attempts through the stall;
    # the baseline uses a realistic 1 s client deadline and no retries,
    # so its operations fail for the whole failure-detection window.
    procs = _gateway_store_clients(
        cluster, history, num_clients=3, ops_per_client=24,
        timeout=None if resilient else 1.0,
    )
    _drive_all(cluster, procs, limit=300.0)
    final_term = cluster.controller.current_term.term_id
    metrics = recovery_metrics(history, crash_at,
                               kinds=("store.put", "store.get"),
                               enabled=resilient)
    sanity = [
        (final_term > initial_term,
         f"no reconfiguration happened: term stayed {initial_term}"),
        (_ok_ops_after(history, crash_at) > 0,
         "no operation completed after the crash"),
    ]
    checks = [check_store_linearizability(history), check_metalog(cluster)]
    stats = _base_stats(cluster, history)
    if resilient:
        checks.append(check_recovery_slo(metrics, min_availability=0.9))
        sanity.append((cluster.resil.counters["retries"] > 0,
                       "resilience layer never retried"))
        for key, value in sorted(cluster.resil.snapshot().items()):
            stats[f"resil_{key}"] = value
    else:
        availability = metrics["availability"]
        sanity.append(
            (availability is not None and availability < 0.9,
             f"baseline availability {availability} not degraded: the fault "
             f"window did not overlap the load"),
        )
    checks.append(_sanity(sanity))
    stats["initial_term"] = initial_term
    stats["final_term"] = final_term
    return ScenarioResult(checks, injector.timeline, stats, recovery=metrics,
                          online=_online(cluster))


@_scenario(
    "crash-primary-under-load",
    "Crash the primary sequencer under gateway-driven store load with the "
    "resilience layer on: client retries ride through failure detection + "
    "reconfiguration, so availability stays >= 0.9 and recovery time is "
    "finite while linearizability and metalog consistency hold.",
    tags=("recovery",),
)
def crash_primary_under_load(seed: int) -> ScenarioResult:
    return _crash_primary_under_load(seed, resilient=True)


@_scenario(
    "crash-primary-under-load-norecovery",
    "The same primary-sequencer crash without the resilience layer "
    "(single-attempt clients with a 1 s deadline): safety holds but "
    "availability degrades for the whole failure-detection window — the "
    "baseline the recovery SLO is measured against.",
    tags=("recovery",),
)
def crash_primary_under_load_norecovery(seed: int) -> ScenarioResult:
    return _crash_primary_under_load(seed, resilient=False)


def _coordinator_crash_midcommit(seed: int, resilient: bool) -> ScenarioResult:
    from repro.libs.bokiflow import BokiFlowRuntime
    from repro.libs.bokiflow.env import WorkflowCrash

    scenario = ("coordinator-crash-midcommit" if resilient
                else "coordinator-crash-midcommit-norecovery")
    cluster = BokiCluster(num_function_nodes=2, seed=seed)
    if resilient:
        cluster.enable_resilience()
    hub = _monitor(cluster, scenario, seed)
    db = DynamoDBService(cluster.env, cluster.net, cluster.streams)
    _attach(hub, db)
    cluster.boot()
    env = cluster.env
    history = History(env)
    runtime = BokiFlowRuntime(cluster)
    runtime.history = history

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
    timeline: List[dict] = []

    def hook(wf_env, step):
        wf = wf_env.workflow_id
        if step == 2 and wf in targets and wf not in crashed:
            crashed[wf] = env.now
            timeline.append({"t": round(env.now, 9), "action": "workflow_crash",
                             "args": [wf, "before-step-2"]})
            raise WorkflowCrash(f"coordinator of {wf} crashed mid-commit")

    runtime.fault_hook_env = hook
    completed: Dict[str, int] = {}

    def client(c: int):
        runtime.client_name = "flow"
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

    procs = [env.process(client(c), name=f"chaos-flow-client-{c}")
             for c in range(num_clients)]
    _drive_all(cluster, procs, limit=300.0)

    fault_at = min(crashed.values()) if crashed else 0.0
    metrics = recovery_metrics(history, fault_at, kinds=("flow.run",),
                               enabled=resilient)
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
    checks = [exactly_once, check_metalog(cluster)]
    stats = {
        "virtual_time_s": round(env.now, 6),
        "ops_recorded": len(history),
        "messages_sent": cluster.net.messages_sent,
        "workflows_total": len(wf_ids),
        "workflows_completed": len(completed),
        "coordinator_crashes": len(crashed),
        "effects_applied": len(db.effect_log),
    }
    if resilient:
        checks.append(check_recovery_slo(metrics, min_availability=0.9))
        sanity.append((len(completed) == len(wf_ids),
                       f"only {len(completed)}/{len(wf_ids)} workflows "
                       f"completed despite recovery"))
        for key, value in sorted(cluster.resil.snapshot().items()):
            stats[f"resil_{key}"] = value
    else:
        availability = metrics["availability"]
        sanity.append(
            (availability is not None and availability < 0.9,
             f"baseline availability {availability} not degraded"),
        )
        sanity.append((0 < len(completed) < len(wf_ids),
                       "baseline should complete only the uncrashed workflows"))
    checks.append(_sanity(sanity))
    return ScenarioResult(checks, timeline, stats, recovery=metrics,
                          online=_online(cluster, expected_effects=expected))


@_scenario(
    "coordinator-crash-midcommit",
    "Kill the coordinator of every other BokiFlow workflow right before "
    "its final commit step; with recovery enabled each workflow is "
    "re-driven from its step journal under the SAME id, so all workflows "
    "complete with exactly-once effects and availability >= 0.9.",
    tags=("fast", "recovery"),
)
def coordinator_crash_midcommit(seed: int) -> ScenarioResult:
    return _coordinator_crash_midcommit(seed, resilient=True)


@_scenario(
    "coordinator-crash-midcommit-norecovery",
    "The same mid-commit coordinator crashes without recovery: crashed "
    "workflows are abandoned (never commit, effects stay a safe prefix), "
    "and availability degrades to the uncrashed fraction.",
    tags=("fast", "recovery"),
)
def coordinator_crash_midcommit_norecovery(seed: int) -> ScenarioResult:
    return _coordinator_crash_midcommit(seed, resilient=False)


@_scenario(
    "flaky-links-retry-storm",
    "Lossy client<->gateway and gateway<->function links for a window "
    "under store load: short-attempt retries mask the drops (availability "
    ">= 0.9) while the shared retry budget keeps the storm bounded "
    "(no denied retries, no breaker lockout) and safety holds.",
    tags=("fast", "recovery"),
)
def flaky_links_retry_storm(seed: int) -> ScenarioResult:
    from repro.resil import RetryBudget, RetryPolicy

    cluster = BokiCluster(
        num_function_nodes=2, num_storage_nodes=3, num_sequencer_nodes=3,
        seed=seed,
    )
    resil = cluster.enable_resilience()
    # A storm-sized budget: the default is tuned for rare faults, not a
    # sustained lossy window; scenarios size the budget like an operator
    # would. Deterministic — set before any traffic.
    resil.budget = RetryBudget(ratio=0.25, max_tokens=200.0, initial=50.0)
    hub = _monitor(cluster, "flaky-links-retry-storm", seed)
    cluster.boot()
    history = History(cluster.env)
    _register_store_fn(cluster)
    target = cluster.function_nodes[0]
    cluster.gateway.scheduler = lambda fn, book_id: target
    fault_at, heal_at = 0.2, 1.4
    plan = (
        FaultPlan()
        .link_fault(fault_at, "client", "gateway", drop=0.08, symmetric=True)
        .link_fault(fault_at, "gateway", target.name, drop=0.05, symmetric=True)
        .clear_link_faults(heal_at)
    )
    injector = FaultInjector(cluster.env, cluster.net, plan)
    _attach(hub, injector)
    injector.start()
    policy = RetryPolicy(max_attempts=8, base_delay=5e-3, max_delay=0.1,
                         attempt_timeout=0.25, retry_timeouts=True)
    procs = _gateway_store_clients(
        cluster, history, num_clients=3, ops_per_client=40, policy=policy,
    )
    _drive_all(cluster, procs, limit=300.0)
    metrics = recovery_metrics(history, fault_at,
                               kinds=("store.put", "store.get"),
                               enabled=True)
    snapshot = resil.snapshot()
    last_invoke = max((op.t_invoke for op in history.ops), default=0.0)
    checks = [
        check_store_linearizability(history),
        check_metalog(cluster),
        check_recovery_slo(metrics, min_availability=0.9),
        _sanity([
            (len(injector.timeline) == 3,
             "link faults / heal did not all fire"),
            (last_invoke > 0.8, "load did not span the fault window"),
            (snapshot["retries"] > 0, "the lossy window caused no retries"),
            (snapshot["budget_denied"] == 0,
             f"{snapshot['budget_denied']} retries denied: budget too small "
             f"for the storm"),
        ]),
    ]
    stats = _base_stats(cluster, history)
    for key, value in sorted(snapshot.items()):
        stats[f"resil_{key}"] = value
    return ScenarioResult(checks, injector.timeline, stats, recovery=metrics,
                          online=_online(cluster))


# ----------------------------------------------------------------------
# Elasticity scenarios: the autoscaler's control loop under faults
# (repro.elastic)
# ----------------------------------------------------------------------
def _register_bulk_fn(cluster: BokiCluster) -> None:
    """Deploy ``bulk-op``: pure compute holding a worker slot for 10 ms —
    the load signal the engine autoscaling policy reacts to."""
    env = cluster.env

    def bulk_op(ctx, arg):
        yield env.timeout(0.01)
        return arg

    cluster.register_function("bulk-op", bulk_op)


def _merged_timeline(injector: FaultInjector, auto) -> List[dict]:
    """Fault events and autoscaler decisions in one time-ordered timeline,
    so a verdict shows scaling interleaved with the faults it rode through."""
    return sorted(injector.timeline + auto.events, key=lambda e: e["t"])


@_scenario(
    "elastic-scale-in-during-partition",
    "Light load makes the autoscaler scale the engine and storage fleets "
    "in while the very nodes it wants to decommission are partitioned "
    "away; the serialized seal-then-install decommission must preserve "
    "linearizability, queue no-loss/no-dup, and metalog consistency.",
    tags=("elastic",),
)
def elastic_scale_in_during_partition(seed: int) -> ScenarioResult:
    from repro.elastic import HysteresisPolicy, PolicyConfig

    cluster = BokiCluster(
        num_function_nodes=3, num_storage_nodes=4, num_sequencer_nodes=3,
        workers_per_node=4, seed=seed,
    )
    cluster.enable_resilience()
    auto = cluster.enable_elasticity(
        interval=0.05,
        engine_policy=HysteresisPolicy(PolicyConfig(
            min_nodes=1, max_nodes=3, breach_up=2, breach_down=4,
            cooldown_down=0.5,
        )),
        # Slower storage policy: its single 4 -> 3 scale-in lands inside
        # the partition window.
        storage_policy=HysteresisPolicy(PolicyConfig(
            min_nodes=3, max_nodes=4, breach_down=10, cooldown_down=1.0,
        )),
    )
    hub = _monitor(cluster, "elastic-scale-in-during-partition", seed)
    cluster.boot()
    env = cluster.env
    history = History(env)
    _register_bulk_fn(cluster)

    # The scale-in victims are the highest pool ranks: func-2 first, then
    # storage-3. Partition exactly those away before the fleet shrinks.
    part_at, heal_at = 0.4, 2.0
    victims = ["func-2", "storage-3"]
    others = sorted(set(cluster.net.nodes) - set(victims))
    plan = (
        FaultPlan()
        .partition_groups(part_at, [victims, others])
        .heal_all(heal_at)
    )
    injector = FaultInjector(env, cluster.net, plan)
    _attach(hub, injector)
    injector.start()

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
    store_procs = _store_load(cluster, history, num_clients=3,
                              ops_per_client=30)
    engine = cluster.engines["func-0"]
    queue = BokiQueue(cluster.logbook(2, engine=engine), "elastic-q",
                      num_shards=2)
    queue.history = history
    _attach(hub, queue)
    produced: List[str] = []

    def producer_proc():
        producer = queue.producer()
        for i in range(30):
            value = f"msg-{i:04d}"
            yield from producer.push(value)
            produced.append(value)
            yield env.timeout(0.02)

    popped = {"n": 0}

    def consumer_proc(shard: int, rounds: int):
        consumer = queue.consumer(shard)
        for _ in range(rounds):
            value = yield from consumer.pop_wait(poll_interval=0.01,
                                                 max_polls=100)
            if value is None:
                return
            popped["n"] += 1

    queue_procs = [
        env.process(producer_proc(), name="elastic-producer"),
        env.process(consumer_proc(0, 8), name="elastic-consumer-0"),
        env.process(consumer_proc(1, 8), name="elastic-consumer-1"),
    ]
    _drive_all(cluster, busy + [light] + store_procs + queue_procs,
               limit=300.0)

    def drain_proc(shard: int):
        consumer = queue.consumer(shard)  # fresh: rebuilds from the log
        while True:
            value = yield from consumer.pop()
            if value is None:
                return
            popped["n"] += 1

    drains = [env.process(drain_proc(s), name=f"elastic-drain-{s}")
              for s in (0, 1)]
    _drive_all(cluster, drains, limit=300.0)

    scale_ins = auto.scale_events("scale-in")
    in_window = [e for e in scale_ins if part_at <= e["t"] <= heal_at]
    removed_in_window = {n for e in in_window for n in e["removed"]}
    ops_after = _ok_ops_after(history, heal_at)
    checks = [
        check_store_linearizability(history),
        check_queue_delivery(history, drained=True),
        check_metalog(cluster),
        _sanity([
            (len(injector.timeline) == 2, "partition/heal did not both fire"),
            (bool(in_window),
             "no scale-in happened during the partition window"),
            (set(victims) <= removed_in_window,
             f"partitioned victims {victims} were not the nodes "
             f"decommissioned during the partition (got "
             f"{sorted(removed_in_window)})"),
            (auto.reconfig_failures == 0,
             f"{auto.reconfig_failures} scaling reconfigurations failed"),
            (ops_after > 0, "no operation completed after the heal"),
            (len(produced) == 30, "producer did not finish"),
        ]),
    ]
    stats = _base_stats(cluster, history)
    stats["final_term"] = cluster.controller.current_term.term_id
    stats["scale_ins"] = len(scale_ins)
    stats["scale_ins_during_partition"] = len(in_window)
    stats["engines_active"] = len(auto.active_engines)
    stats["storage_active"] = len(auto.active_storage)
    stats["node_seconds"] = round(auto.node_seconds(), 6)
    stats["pushed"] = len(produced)
    stats["popped"] = popped["n"]
    stats["ops_ok_after_heal"] = ops_after
    return ScenarioResult(checks, _merged_timeline(injector, auto), stats,
                          online=_online(cluster, drained=True))


@_scenario(
    "elastic-flash-crowd-primary-crash",
    "A flash crowd drives the engine fleet from 2 to 4 nodes, then the "
    "primary sequencer crashes at peak load: the failure detector and the "
    "autoscaler race the controller through the serialized reconfiguration "
    "queue, while resilient store clients must keep availability >= 0.9 "
    "with linearizability and metalog consistency intact.",
    tags=("elastic",),
)
def elastic_flash_crowd_primary_crash(seed: int) -> ScenarioResult:
    from repro.elastic import HysteresisPolicy, PolicyConfig
    from repro.workloads.harness import FlashCrowdShape, run_shaped_open_loop

    cluster = BokiCluster(
        num_function_nodes=2, num_spare_function_nodes=2,
        num_storage_nodes=3, num_sequencer_nodes=4,
        workers_per_node=4, seed=seed, use_coord_sessions=True,
    )
    cluster.enable_resilience()
    auto = cluster.enable_elasticity(
        interval=0.05,
        engine_policy=HysteresisPolicy(PolicyConfig(
            min_nodes=2, max_nodes=4, breach_up=2, breach_down=4,
            cooldown_down=1.0,
        )),
    )
    hub = _monitor(cluster, "elastic-flash-crowd-primary-crash", seed)
    cluster.boot()
    env = cluster.env
    history = History(env)
    _register_store_fn(cluster)
    _register_bulk_fn(cluster)

    # store-op is pinned to func-0 (linearizability is per-index, §4.4);
    # bulk-op round-robins over the autoscaler's ACTIVE fleet.
    gateway = cluster.gateway
    target = cluster.function_nodes[0]
    rr = itertools.count()

    def scheduler(fn_name, book_id):
        if fn_name == "store-op":
            return target
        alive = [f for f in gateway.function_nodes if f.node.alive]
        if gateway.active_nodes is not None:
            active = [f for f in alive if f.name in gateway.active_nodes]
            alive = active or alive
        return alive[next(rr) % len(alive)]

    gateway.scheduler = scheduler

    initial_term = cluster.controller.current_term.term_id
    surge_at, crash_at = 0.8, 1.3
    # Crash the primary ordering the store clients' log *at crash time*:
    # the flash crowd's scale-out has already rotated the sequencer
    # assignment by then, so the victim is resolved from the current term
    # (deterministic — the autoscaler timeline is seed-determined).
    crashed: Dict[str, object] = {}

    def crash_store_primary():
        term = cluster.controller.current_term
        primary = term.assignment(term.log_for_book(1)).primary
        crashed["primary"] = primary
        crashed["term"] = term.term_id
        cluster.net.nodes[primary].crash()

    plan = FaultPlan().call(crash_at, "crash-store-primary",
                            crash_store_primary)
    injector = FaultInjector(env, cluster.net, plan)
    _attach(hub, injector)
    injector.start()

    # Resilient gateway store clients ride through the append stall that
    # runs from the crash until the next reconfiguration replaces the
    # dead primary (the autoscaler's post-decay scale-in or the session
    # failure detector — whichever seals first).
    store_procs = _gateway_store_clients(cluster, history, num_clients=3,
                                         ops_per_client=80)
    # Base fleet (2 engines x 4 workers x 10 ms) saturates at ~800 req/s:
    # base 350/s sits in the dead band, the 1400/s peak forces 4 nodes.
    shape = FlashCrowdShape(base_rate=350, peak_rate=1400, surge_at=surge_at,
                            ramp=0.2, hold=0.8, decay=0.3)
    result = run_shaped_open_loop(
        env, lambda i: cluster.invoke("bulk-op", i), shape, duration=2.6,
        rng=cluster.streams.stream("elastic-flash"),
    )
    _drive_all(cluster, store_procs, limit=300.0)

    final_term = cluster.controller.current_term.term_id
    metrics = recovery_metrics(history, crash_at,
                               kinds=("store.put", "store.get"),
                               enabled=True)
    scale_outs = auto.scale_events("scale-out")
    reaction = auto.reaction_time(surge_at)
    peak_fleet = max((len(e["engines"]) for e in scale_outs), default=0)
    ops_after = _ok_ops_after(history, crash_at)
    checks = [
        check_store_linearizability(history),
        check_metalog(cluster),
        check_recovery_slo(metrics, min_availability=0.9),
        _sanity([
            (bool(scale_outs), "the flash crowd triggered no scale-out"),
            (reaction is not None and reaction < 0.5,
             f"scale-out reaction to the surge was {reaction}"),
            (peak_fleet > 2, "the engine fleet never grew past its base"),
            (len(injector.timeline) == 1, "the crash did not fire"),
            (final_term > initial_term,
             f"no reconfiguration happened: term stayed {initial_term}"),
            (ops_after > 0, "no operation completed after the crash"),
            (cluster.resil.counters["retries"] > 0,
             "resilience layer never retried through the stall"),
        ]),
    ]
    stats = _base_stats(cluster, history)
    stats["initial_term"] = initial_term
    stats["final_term"] = final_term
    stats["bulk_launched"] = result.extra["launched"]
    stats["bulk_completed"] = result.completed
    stats["bulk_errors"] = result.errors
    stats["scale_outs"] = len(scale_outs)
    stats["scale_ins"] = len(auto.scale_events("scale-in"))
    stats["peak_engines"] = peak_fleet
    stats["reaction_time_s"] = (round(reaction, 9)
                                if reaction is not None else None)
    stats["node_seconds"] = round(auto.node_seconds(), 6)
    stats["ops_ok_after_crash"] = ops_after
    stats["crashed_primary"] = crashed.get("primary")
    stats["crashed_in_term"] = crashed.get("term")
    return ScenarioResult(checks, _merged_timeline(injector, auto), stats,
                          recovery=metrics, online=_online(cluster))


# ----------------------------------------------------------------------
# Overload scenarios: admission control and graceful degradation under
# saturating load (repro.admission)
# ----------------------------------------------------------------------
#: Per-op worker cost of ``bulk-op`` (10 ms of handler time plus dispatch
#: overhead, slightly padded): the denominator of the analytic saturation
#: goodput ``workers / _BULK_COST`` the goodput SLO is measured against.
_BULK_COST = 0.0105


def _overload_clients(cluster: BokiCluster, history: History, rate: float,
                      duration: float, policy=None, timeout=None,
                      priority: str = "interactive", start: float = 0.0,
                      kind: str = "bulk.op", tenant: Optional[str] = None):
    """Open-loop ``bulk-op`` arrivals at ``rate``/s for ``duration``.

    Open loop is what makes overload *sustained*: every arrival is its
    own client process, so slow (or shed) requests do not throttle the
    arrival rate the way a closed loop would — offered load stays at
    ``rate`` no matter what the cluster does with it. Each operation is
    recorded in ``history`` (kind ``bulk.op``), the vantage point
    :func:`~repro.chaos.liveness.overload_report` measures goodput from.

    Returns ``(generator_proc, op_procs)`` — drive the generator to
    completion first, then the (by that point fully populated) per-op
    process list.
    """
    env = cluster.env
    rng = cluster.streams.stream("chaos-overload")
    ops: List = []

    def one_op(i: int):
        op = history.invoke("overload", kind, f"op-{i}")
        try:
            result = yield from cluster.invoke(
                "bulk-op", i, timeout=timeout, policy=policy,
                priority=priority, tenant=tenant,
            )
        except Exception as exc:
            history.fail(op, type(exc).__name__)
        else:
            history.ok(op, result)

    def generator():
        if start:
            yield env.timeout(start)
        for i in range(int(rate * duration)):
            ops.append(env.process(one_op(i), name=f"overload-op-{i}"))
            # ±10% jitter desynchronizes arrivals without changing the
            # offered rate (deterministic: named stream).
            yield env.timeout((0.9 + 0.2 * rng.random()) / rate)

    return env.process(generator(), name="overload-gen"), ops


def _worker_peak(cluster: BokiCluster, peaks: Dict[str, float],
                 interval: float = 0.005):
    """Sample the deepest function-node worker queue into
    ``peaks["worker.depth"]`` — the queue whose unbounded growth is the
    metastable-failure signature (zombie executions pile up behind
    client deadlines). Plain polling, not driven to completion: it
    simply stops being stepped once the client processes finish."""
    env = cluster.env

    def sampler():
        while True:
            depth = max(f.queue_depth for f in cluster.function_nodes)
            if depth > peaks["worker.depth"]:
                peaks["worker.depth"] = depth
            yield env.timeout(interval)

    peaks.setdefault("worker.depth", 0)
    return env.process(sampler(), name="chaos-queue-sampler")


def _retry_storm(seed: int, admission: bool) -> ScenarioResult:
    from repro.admission import AdaptiveLimiter
    from repro.resil import RetryPolicy

    name = ("retry-storm-metastable" if admission
            else "retry-storm-metastable-noadmission")
    cluster = BokiCluster(
        num_function_nodes=1, num_storage_nodes=3, num_sequencer_nodes=3,
        workers_per_node=4, seed=seed,
    )
    cluster.enable_resilience()
    ctrl = None
    if admission:
        # Sized for the tiny fleet: 4 workers x 10 ms saturate at ~16
        # concurrent before latency passes the 50 ms target, so the
        # limiter starts at its equilibrium instead of discovering it
        # from the default 64 mid-storm.
        ctrl = cluster.enable_admission(
            limiter=AdaptiveLimiter(initial=16.0, target_latency=0.050),
        )
    hub = _monitor(cluster, name, seed)
    cluster.boot()
    env = cluster.env
    history = History(env)
    _register_bulk_fn(cluster)

    # Offered load ~1.8x saturation; short per-attempt deadlines plus
    # eager retries are the storm: every timed-out attempt leaves a
    # zombie execution burning a worker slot AND re-arrives as a retry.
    workers = len(cluster.function_nodes) * 4
    saturation = workers / _BULK_COST
    rate, duration = 700.0, 2.0
    # The injected condition IS the load: a timeline marker documents it
    # (and lands in the flight recorder) like any other fault.
    plan = FaultPlan().call(0.0, f"open-loop-overload-{int(rate)}rps",
                            lambda: None)
    injector = FaultInjector(env, cluster.net, plan)
    _attach(hub, injector)
    injector.start()
    policy = RetryPolicy(max_attempts=4, base_delay=5e-3, max_delay=0.05,
                         attempt_timeout=0.12, retry_timeouts=True)
    peaks: Dict[str, float] = {}
    _worker_peak(cluster, peaks)
    gen, ops = _overload_clients(cluster, history, rate, duration,
                                 policy=policy)
    _drive_all(cluster, [gen], limit=300.0)
    _drive_all(cluster, ops, limit=300.0)

    window_start, window_end = 0.5, duration
    report = overload_report(
        history, window_start, window_end, kinds=("bulk.op",),
        saturation_goodput=saturation,
        queue_peaks={
            "gateway.inflight": cluster.gateway.inflight_peak,
            "worker.depth": peaks["worker.depth"],
        },
        shed=ctrl.total_shed() if ctrl is not None else 0,
        admission=ctrl.snapshot() if ctrl is not None else None,
        enabled=admission,
    )
    # The degradation contract: >= 70% of saturation goodput, accepted
    # requests finishing well inside the 120 ms client deadline, queues
    # bounded near the concurrency limit. The no-admission baseline MUST
    # fail this checker — that failure is its expected violation.
    goodput = check_goodput_slo(report, min_goodput_fraction=0.7,
                                max_accepted_p99=0.25, max_queue_peak=128)
    snapshot = cluster.resil.snapshot()
    last_invoke = max((op.t_invoke for op in history.ops), default=0.0)
    sanity = [
        (last_invoke > window_start + 1.0,
         "the open-loop load did not span the overload window"),
        (report["offered"] > 0.9 * rate * (window_end - window_start),
         "offered load fell below the open-loop rate"),
        (snapshot["retries"] > 0, "the storm caused no client retries"),
    ]
    if admission:
        sanity.append((ctrl.total_shed() > 0,
                       "admission control never shed under saturating load"))
    checks = [
        check_metalog(cluster),
        goodput,
        _sanity(sanity),
    ]
    stats = _base_stats(cluster, history)
    for key, value in sorted(snapshot.items()):
        stats[f"resil_{key}"] = value
    stats["gateway_inflight_peak"] = cluster.gateway.inflight_peak
    stats["worker_depth_peak"] = peaks["worker.depth"]
    stats["shed_total"] = ctrl.total_shed() if ctrl is not None else 0
    return ScenarioResult(checks, injector.timeline, stats, overload=report,
                          online=_online(cluster))


@_scenario(
    "retry-storm-metastable",
    "Open-loop load at ~1.8x saturation with short client deadlines and "
    "eager retries; the adaptive limiter sheds the excess, so goodput "
    "holds >= 70% of saturation with bounded accepted latency and "
    "bounded queues while the shed clients back off on retry-after "
    "hints.",
    tags=("fast", "admission"),
)
def retry_storm_metastable(seed: int) -> ScenarioResult:
    return _retry_storm(seed, admission=True)


@_scenario(
    "retry-storm-metastable-noadmission",
    "The same retry storm with no admission control: timed-out attempts "
    "leave zombie executions burning worker slots while their retries "
    "re-arrive, queues grow without bound, and goodput collapses — the "
    "metastable failure the goodput SLO checker must flag.",
    expect_violations=True,
    tags=("fast", "admission"),
)
def retry_storm_metastable_noadmission(seed: int) -> ScenarioResult:
    return _retry_storm(seed, admission=False)


@_scenario(
    "sustained-overload-beyond-max-nodes",
    "A sustained surge beyond what even the autoscaler's max_nodes fleet "
    "can serve: scale-out absorbs what it can (shedding stays disarmed "
    "below the ceiling), then admission control sheds batch traffic "
    "first so interactive clients keep their availability SLO while "
    "goodput holds near the max-fleet saturation point.",
    tags=("admission",),
)
def sustained_overload_beyond_max_nodes(seed: int) -> ScenarioResult:
    from repro.admission import BATCH, INTERACTIVE
    from repro.elastic import HysteresisPolicy, PolicyConfig
    from repro.resil import RetryPolicy

    cluster = BokiCluster(
        num_function_nodes=2, num_spare_function_nodes=2,
        num_storage_nodes=3, num_sequencer_nodes=3,
        workers_per_node=4, seed=seed,
    )
    cluster.enable_resilience()
    auto = cluster.enable_elasticity(
        interval=0.05,
        engine_policy=HysteresisPolicy(PolicyConfig(
            min_nodes=2, max_nodes=4, breach_up=2, breach_down=4,
            cooldown_down=2.0,
        )),
        # Storage stays put: the surge is pure compute, and a bulk-idle
        # storage fleet must not shrink below its replication needs.
        storage_policy=HysteresisPolicy(PolicyConfig(
            min_nodes=3, max_nodes=3, breach_down=1000, cooldown_down=10.0,
        )),
    )
    ctrl = cluster.enable_admission()
    hub = _monitor(cluster, "sustained-overload-beyond-max-nodes", seed)
    cluster.boot()
    env = cluster.env
    history = History(env)
    _register_store_fn(cluster)
    _register_bulk_fn(cluster)

    # store-op is pinned to func-0 (linearizability is per-index, §4.4);
    # bulk-op round-robins over the autoscaler's ACTIVE fleet.
    gateway = cluster.gateway
    target = cluster.function_nodes[0]
    rr = itertools.count()

    def scheduler(fn_name, book_id):
        if fn_name == "store-op":
            return target
        alive = [f for f in gateway.function_nodes if f.node.alive]
        if gateway.active_nodes is not None:
            active = [f for f in alive if f.name in gateway.active_nodes]
            alive = active or alive
        return alive[next(rr) % len(alive)]

    gateway.scheduler = scheduler

    # Max fleet (4 engines x 4 workers x 10 ms) saturates at ~1520/s;
    # the surge offers ~1800/s of BATCH work — beyond any fleet the
    # policy can build — while INTERACTIVE store clients ride along.
    workers = 4 * 4
    saturation = workers / _BULK_COST
    surge_at, rate, duration = 0.3, 1800.0, 1.6
    plan = FaultPlan().call(surge_at, f"sustained-surge-{int(rate)}rps",
                            lambda: None)
    injector = FaultInjector(env, cluster.net, plan)
    _attach(hub, injector)
    injector.start()
    policy = RetryPolicy(max_attempts=3, base_delay=5e-3, max_delay=0.05,
                         attempt_timeout=0.5, retry_timeouts=True)
    gen, ops = _overload_clients(cluster, history, rate, duration,
                                 policy=policy, priority=BATCH,
                                 start=surge_at)
    store_procs = _gateway_store_clients(cluster, history, num_clients=3,
                                         ops_per_client=70)
    _drive_all(cluster, [gen] + store_procs, limit=300.0)
    _drive_all(cluster, ops, limit=300.0)

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
    metrics = recovery_metrics(history, surge_at,
                               kinds=("store.put", "store.get"),
                               enabled=True)
    scale_outs = auto.scale_events("scale-out")
    peak_fleet = max((len(e["engines"]) for e in scale_outs), default=0)
    shed_batch = ctrl.shed_by_priority.get(BATCH, 0)
    shed_interactive = ctrl.shed_by_priority.get(INTERACTIVE, 0)
    checks = [
        check_store_linearizability(history),
        check_metalog(cluster),
        check_goodput_slo(report, min_goodput_fraction=0.7,
                          max_accepted_p99=0.5),
        # Graceful degradation for the interactive class: store clients
        # keep >= 90% availability through the whole surge window.
        check_recovery_slo(metrics, min_availability=0.9),
        _sanity([
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
        ]),
    ]
    stats = _base_stats(cluster, history)
    stats["scale_outs"] = len(scale_outs)
    stats["peak_engines"] = peak_fleet
    stats["gateway_inflight_peak"] = gateway.inflight_peak
    stats["shed_total"] = ctrl.total_shed()
    stats["shed_batch"] = shed_batch
    stats["shed_interactive"] = shed_interactive
    stats["node_seconds"] = round(auto.node_seconds(), 6)
    return ScenarioResult(checks, _merged_timeline(injector, auto), stats,
                          recovery=metrics, overload=report,
                          online=_online(cluster))


@_scenario(
    "split-brain-controller-during-scale-out",
    "The controller is partitioned away exactly when a surge needs a "
    "scale-out: every seal loses its quorum, reconfigurations fail, and "
    "admission control arms mid-reconfiguration — shedding holds goodput "
    "near the stuck fleet's saturation until the heal lets the scale-out "
    "land and the cluster recovers fully.",
    tags=("admission",),
)
def split_brain_controller_during_scale_out(seed: int) -> ScenarioResult:
    from repro.elastic import HysteresisPolicy, PolicyConfig
    from repro.resil import RetryPolicy

    cluster = BokiCluster(
        num_function_nodes=2, num_spare_function_nodes=2,
        num_storage_nodes=3, num_sequencer_nodes=3,
        workers_per_node=4, seed=seed,
    )
    cluster.enable_resilience()
    auto = cluster.enable_elasticity(
        interval=0.05,
        engine_policy=HysteresisPolicy(PolicyConfig(
            min_nodes=2, max_nodes=4, breach_up=2, breach_down=4,
            cooldown_down=2.0,
        )),
        storage_policy=HysteresisPolicy(PolicyConfig(
            min_nodes=3, max_nodes=3, breach_down=1000, cooldown_down=10.0,
        )),
    )
    ctrl = cluster.enable_admission()
    hub = _monitor(cluster, "split-brain-controller-during-scale-out", seed)
    cluster.boot()
    env = cluster.env
    history = History(env)
    _register_store_fn(cluster)
    _register_bulk_fn(cluster)

    gateway = cluster.gateway
    target = cluster.function_nodes[0]
    rr = itertools.count()

    def scheduler(fn_name, book_id):
        if fn_name == "store-op":
            return target
        alive = [f for f in gateway.function_nodes if f.node.alive]
        if gateway.active_nodes is not None:
            active = [f for f in alive if f.name in gateway.active_nodes]
            alive = active or alive
        return alive[next(rr) % len(alive)]

    gateway.scheduler = scheduler

    # Partition the controller from everyone else just before the surge:
    # the autoscaler (running ON the controller node, sampling shared
    # state) keeps deciding to scale out, but every seal RPC is dropped —
    # each attempt fails its quorum and the fleet is stuck at 2 nodes.
    part_at, heal_at = 0.25, 1.5
    others = sorted(set(cluster.net.nodes) - {"controller"})
    plan = (
        FaultPlan()
        .partition_groups(part_at, [["controller"], others])
        .heal_all(heal_at)
    )
    injector = FaultInjector(env, cluster.net, plan)
    _attach(hub, injector)
    injector.start()

    # ~1.3x the stuck fleet's saturation (2 engines x 4 workers), but
    # under the 4-node fleet's — after the heal the scale-out fully
    # absorbs the load and shedding stops.
    stuck_workers = 2 * 4
    stuck_saturation = stuck_workers / _BULK_COST
    surge_at, rate, duration = 0.3, 1000.0, 2.2
    policy = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.1,
                         attempt_timeout=0.5, retry_timeouts=True)
    gen, ops = _overload_clients(cluster, history, rate, duration,
                                 policy=policy, start=surge_at)
    store_procs = _gateway_store_clients(cluster, history, num_clients=3,
                                         ops_per_client=80)
    _drive_all(cluster, [gen] + store_procs, limit=300.0)
    _drive_all(cluster, ops, limit=300.0)

    report = overload_report(
        history, surge_at + 0.15, heal_at, kinds=("bulk.op",),
        saturation_goodput=stuck_saturation,
        queue_peaks={"gateway.inflight": gateway.inflight_peak},
        shed=ctrl.total_shed(),
        admission=ctrl.snapshot(),
        enabled=True,
    )
    metrics = recovery_metrics(history, part_at,
                               kinds=("store.put", "store.get"),
                               enabled=True)
    scale_outs = auto.scale_events("scale-out")
    healed_outs = [e for e in scale_outs if e["t"] >= heal_at]
    peak_fleet = max((len(e["engines"]) for e in scale_outs), default=2)
    ops_after = _ok_ops_after(history, heal_at)
    checks = [
        check_store_linearizability(history),
        check_metalog(cluster),
        # Client-perceived latency of an eventually-accepted op includes
        # its shed-retry envelope (up to 3 attempts x 0.5 s plus
        # hint-floored backoff), so the bound asserts "every accepted op
        # finished within the retry budget" — the metastable alternative
        # is ops that never complete at all.
        check_goodput_slo(report, min_goodput_fraction=0.5,
                          max_accepted_p99=2.0),
        check_recovery_slo(metrics, min_availability=0.9),
        _sanity([
            (len(injector.timeline) == 2, "partition/heal did not both fire"),
            (auto.reconfig_failures > 0,
             "the split-brain never failed a reconfiguration"),
            (bool(healed_outs),
             "no scale-out landed after the heal"),
            (peak_fleet == 4,
             f"the post-heal fleet peaked at {peak_fleet} engines, not 4"),
            (ctrl.total_shed() > 0,
             "admission control never shed while the fleet was stuck"),
            (ops_after > 0, "no operation completed after the heal"),
        ]),
    ]
    stats = _base_stats(cluster, history)
    stats["reconfig_failures"] = auto.reconfig_failures
    stats["scale_outs"] = len(scale_outs)
    stats["peak_engines"] = peak_fleet
    stats["engines_active"] = len(auto.active_engines)
    stats["gateway_inflight_peak"] = gateway.inflight_peak
    stats["shed_total"] = ctrl.total_shed()
    stats["ops_ok_after_heal"] = ops_after
    stats["final_term"] = cluster.controller.current_term.term_id
    return ScenarioResult(checks, _merged_timeline(injector, auto), stats,
                          recovery=metrics, overload=report,
                          online=_online(cluster))


@_scenario(
    "noisy-neighbor-batch-flood",
    "Two tenants share one cluster: a well-behaved interactive tenant "
    "rides under its weighted share while a flood tenant offers ~2x "
    "saturation of batch work. Weighted-fair admission must shed the "
    "flood (>= 90% of all sheds) and keep the victim's availability and "
    "latency, with goodput holding near saturation — noisy-neighbor "
    "containment as a verdict.",
    tags=("fast", "admission", "tenant"),
)
def noisy_neighbor_batch_flood(seed: int) -> ScenarioResult:
    from repro.admission import BATCH, AdaptiveLimiter

    cluster = BokiCluster(
        num_function_nodes=2, num_storage_nodes=3, num_sequencer_nodes=3,
        workers_per_node=4, seed=seed,
    )
    tenancy = cluster.enable_tenancy()
    tenancy.registry.register("victim", weight=3.0)
    tenancy.registry.register("flood", weight=1.0)
    # Sized for the fleet (2 engines x 4 workers x 10 ms saturate at
    # ~24 concurrent before latency passes the 50 ms target), so the
    # limiter starts at equilibrium instead of discovering it mid-flood.
    ctrl = cluster.enable_admission(
        limiter=AdaptiveLimiter(initial=24.0, target_latency=0.050),
    )
    hub = _monitor(cluster, "noisy-neighbor-batch-flood", seed)
    cluster.boot()
    env = cluster.env
    history = History(env)
    _register_bulk_fn(cluster)

    # The victim's steady interactive load sits well under its 3/4
    # weighted share; the flood offers ~2x the whole fleet's saturation
    # as a batch flash crowd. The injected condition IS the load: a
    # timeline marker documents it like any other fault.
    workers = 2 * 4
    saturation = workers / _BULK_COST
    victim_rate, victim_duration = 150.0, 2.0
    flood_at, flood_rate, flood_duration = 0.4, 1400.0, 1.2
    plan = FaultPlan().call(flood_at, f"batch-flood-{int(flood_rate)}rps",
                            lambda: None)
    injector = FaultInjector(env, cluster.net, plan)
    _attach(hub, injector)
    injector.start()
    peaks: Dict[str, float] = {}
    _worker_peak(cluster, peaks)
    victim_gen, victim_ops = _overload_clients(
        cluster, history, victim_rate, victim_duration,
        kind="victim.op", tenant="victim")
    flood_gen, flood_ops = _overload_clients(
        cluster, history, flood_rate, flood_duration, priority=BATCH,
        start=flood_at, kind="flood.op", tenant="flood")
    _drive_all(cluster, [victim_gen, flood_gen], limit=300.0)
    _drive_all(cluster, victim_ops + flood_ops, limit=300.0)

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
    checks = [
        check_metalog(cluster),
        check_goodput_slo(report, min_goodput_fraction=0.7,
                          max_accepted_p99=0.25, max_queue_peak=128),
        _sanity([
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
        ]),
    ]
    stats = _base_stats(cluster, history)
    stats["gateway_inflight_peak"] = cluster.gateway.inflight_peak
    stats["worker_depth_peak"] = peaks["worker.depth"]
    stats["shed_total"] = ctrl.total_shed()
    stats["flood_shed_share"] = round(flood_shed_share, 6)
    stats["victim_availability"] = round(victim_avail, 6)
    return ScenarioResult(checks, injector.timeline, stats, overload=report,
                          online=_online(cluster))
