"""The one lifecycle every chaos scenario shares.

``runner.execute`` builds a :class:`Run` from the registry name, the seed
and the ``monitors`` switch and hands it to the scenario body, which keeps
only what is specific to it: topology, layers, fault plan, load, the
checks whose inputs belong to it (:data:`CHECK_ORDER`), sanity conditions,
extra stats. A body calls the steps itself, in order — :meth:`Run.build`,
enable layers, :meth:`Run.boot`, :meth:`Run.inject`, load through
:meth:`Run.drive`, ``return`` :meth:`Run.result` — so its process-creation
and RNG-stream order (what the verdict goldens pin) stays in plain sight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.chaos.checkers import (
    CheckResult,
    check_metalog,
    check_queue_delivery,
    check_store_linearizability,
)
from repro.chaos.faults import FaultEvent, FaultInjector
from repro.chaos.history import History
from repro.chaos.liveness import check_recovery_slo
from repro.core.cluster import BokiCluster


#: The order of a verdict's guarantee checks. A body passes only those
#: whose inputs are its own (``exactly-once-effects``, ``goodput-slo``);
#: :meth:`Run.result` derives the rest from what the run recorded.
CHECK_ORDER = (
    "store-linearizability", "queue-delivery", "exactly-once-effects",
    "metalog-consistency", "goodput-slo", "recovery-slo",
)


@dataclass
class ScenarioResult:
    """The raw material for a verdict artifact."""

    checks: List[CheckResult]
    timeline: List[dict]
    stats: Dict[str, float] = field(default_factory=dict)
    #: Liveness metrics (availability + RTO) for recovery scenarios;
    #: None for pure-safety scenarios.
    recovery: Optional[dict] = None
    #: Online monitor verdict (repro.monitor): the incremental in-sim
    #: monitors' view of the same guarantees the offline checkers audit,
    #: plus freshness/reconciliation summaries and any fired alerts.
    #: None when monitoring was disabled for the run.
    online: Optional[dict] = None
    #: Goodput/degradation metrics (repro.admission) for overload
    #: scenarios (:func:`repro.chaos.liveness.overload_report`); None for
    #: everything else.
    overload: Optional[dict] = None


def sanity_check(conditions: List) -> CheckResult:
    """Scenario self-check: did the faults actually overlap the load?

    A scenario whose workload finishes before its fault window closes is
    not testing what it claims, even if every guarantee checker passes —
    so overlap failures are verdict failures, not silent no-ops.
    """
    violations = [message for ok, message in conditions if not ok]
    return CheckResult("scenario-sanity", violations, len(conditions))


class Run:
    """One execution of one scenario. Once the body has returned, ``hub``
    (None with monitors off) still reaches the flight recorder and
    ``outcome`` holds the body's :class:`ScenarioResult`."""

    def __init__(self, name: str, seed: int, monitors: bool = True):
        self.name = name
        self.seed = seed
        self.monitors = monitors
        self.cluster: Optional[BokiCluster] = None
        self.hub = None
        self.history: Optional[History] = None
        self.injector: Optional[FaultInjector] = None
        self.outcome: Optional[ScenarioResult] = None

    def build(self, **topology) -> BokiCluster:
        self.cluster = BokiCluster(seed=self.seed, **topology)
        return self.cluster

    def boot(self) -> History:
        """Enable the online monitors (when asked), boot, open the
        history. Monitors attach BEFORE boot so the metalog monitor sees
        every entry from index 0."""
        if self.monitors:
            self.hub = self.cluster.enable_monitoring(
                context={"scenario": self.name, "seed": self.seed}
            )
        self.cluster.boot()
        self.history = History(self.cluster.env)
        return self.history

    def watch(self, *sources) -> None:
        """Have the hub (if monitoring is on) watch scenario-local tap
        sources: a BokiQueue, the DynamoDB model, a FaultInjector."""
        if self.hub is not None:
            self.hub.attach(*sources)

    def inject(self, *events: FaultEvent) -> FaultInjector:
        """Start replaying the plan ``events``; its timeline becomes the
        verdict's. A body whose faults fire from a workflow hook injects
        no events and reports each fault with ``injector.record``."""
        self.injector = FaultInjector(self.cluster, events)
        self.watch(self.injector)
        self.injector.start()
        return self.injector

    def drive(self, procs, limit: float = 300.0) -> None:
        env = self.cluster.env
        env.run_until(env.all_of(procs), limit=limit)

    def ok_ops_after(self, t: float) -> int:
        return sum(1 for op in self.history.ops
                   if op.status == "ok" and op.t_invoke >= t)

    def result(self, sanity: List,
               stats: Optional[Dict[str, float]] = None, *,
               checks: Sequence[CheckResult] = (),
               resil_stats: bool = False,
               recovery: Optional[dict] = None,
               overload: Optional[dict] = None,
               expected_effects=None) -> ScenarioResult:
        """Assemble the result. The guarantee checks are the body's
        ``checks`` plus, by one rule, ``store-linearizability`` iff the
        history holds a ``store.put``/``store.get``, ``queue-delivery`` iff
        it holds a ``queue.push``/``queue.pop``, ``metalog-consistency``
        always, and ``recovery-slo`` iff the body measured ``recovery``
        (stamped ``enabled``) with the resilience layer on — ordered by
        :data:`CHECK_ORDER`, where a name outside it raises. The check over
        the ``sanity`` conditions, led by "every planned fault was
        applied", always goes LAST (the runner counts it apart from the
        guarantee checkers). Stats are base + the body's ``stats`` extras
        (+ the resilience counters when ``resil_stats``). The timeline is
        the injector's, merged in time order with the autoscaler's
        decisions when the cluster is elastic, so a verdict shows scaling
        interleaved with the faults it rode through."""
        cluster, history, injector = self.cluster, self.history, self.injector
        kinds = {op.kind for op in history.ops}
        checks = list(checks)
        if kinds & {"store.put", "store.get"}:
            checks.append(check_store_linearizability(history))
        if kinds & {"queue.push", "queue.pop"}:
            checks.append(check_queue_delivery(history))
        checks.append(check_metalog(cluster))
        if recovery is not None:
            recovery["enabled"] = cluster.resil is not None
            if recovery["enabled"]:
                checks.append(check_recovery_slo(recovery))
        checks.sort(key=lambda check: CHECK_ORDER.index(check.name))
        merged = {"virtual_time_s": round(cluster.env.now, 6)}
        if history.ops:
            # A run that records no client operations (the flow-crash
            # pair: its evidence is the database's effect log) reports no
            # operation or message counts either.
            merged["ops_recorded"] = len(history)
            merged["messages_sent"] = cluster.net.messages_sent
        if resil_stats:
            for key, value in sorted(cluster.resil.snapshot().items()):
                merged[f"resil_{key}"] = value
        merged.update(stats or {})
        timeline = injector.timeline
        if cluster.elastic is not None:
            timeline = sorted(timeline + cluster.elastic.events,
                              key=lambda e: e["t"])
        unfired = ", ".join(f"{e.action}@{e.at:g}" for e in injector.pending)
        sanity = [(not unfired, f"planned faults never fired: {unfired}")] + sanity
        online = None
        if self.hub is not None:
            self.hub.finish(expected_effects=expected_effects)
            online = self.hub.verdict()
        return ScenarioResult(checks + [sanity_check(sanity)], timeline, merged,
                              recovery=recovery, overload=overload,
                              online=online)
