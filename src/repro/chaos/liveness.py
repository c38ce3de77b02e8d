"""Liveness metrics: availability and recovery time from histories.

The safety checkers (``repro.chaos.checkers``) prove nothing bad
happened; this module measures whether anything *good* kept happening.
Two Jepsen-style liveness figures are computed from a recorded
:class:`~repro.chaos.history.History` and the fault injection time:

- **availability** — goodput during the fault window: the fraction of
  client operations invoked at or after the fault that completed ``ok``.
  A cluster that recovers by retrying through reconfiguration keeps this
  near 1.0; a cluster without recovery serves errors for the whole
  failure-detection + reconfiguration window.
- **RTO** (recovery time objective) — virtual time from fault injection
  to the first *post-fault* successful completion; None when nothing
  ever succeeded after the fault (recovery failed outright).

:func:`check_recovery_slo` turns the metrics into a
:class:`~repro.chaos.checkers.CheckResult` so recovery objectives sit in
verdicts next to the safety checkers.

For *overload* scenarios (``repro.admission``), :func:`overload_report`
measures **goodput** — useful completions per virtual second during a
saturation window — against the analytic saturation throughput, plus the
latency of the operations that were accepted, and
:func:`check_goodput_slo` turns that into the degradation contract: a
shedding system must keep goodput near capacity with bounded accepted
latency and bounded queues, while a system without admission control
exhibits the metastable collapse (goodput → 0, unbounded queues) that
the no-admission baselines pin down.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.chaos.checkers import CheckResult
from repro.chaos.history import History
from repro.sim.metrics import SuccessWindow, nearest_rank


def recovery_metrics(
    history: History,
    fault_at: float,
    kinds: Optional[Iterable[str]] = None,
) -> dict:
    """Availability + RTO over the operations invoked at/after ``fault_at``.

    ``kinds`` restricts the measured operations (e.g. only ``store.put``/
    ``store.get``). The dict is JSON-serializable and deterministic; a
    chaos run's :meth:`~repro.chaos.lifecycle.Run.result` adds
    ``enabled``, whether the resilience layer was on (so degraded
    baselines are self-describing).

    Availability is computed on a
    :class:`~repro.sim.metrics.SuccessWindow` — the same incremental
    windowed success counter behind the online availability monitor and
    its burn-rate rules — fed one sample per operation at its invoke
    time, so online and offline availability share one windowing
    implementation instead of recomputing from raw samples here.
    """
    kind_set = set(kinds) if kinds is not None else None
    window = SuccessWindow()
    for op in history.ops:  # ops are appended in invoke order: time-sorted
        if kind_set is not None and op.kind not in kind_set:
            continue
        if op.t_invoke < fault_at:
            continue
        window.record(
            op.t_invoke,
            op.status == "ok",
            t_done=op.t_return if op.status == "ok" else None,
        )
    window_ops, window_ok = window.counts(start=fault_at)
    availability = window.availability(start=fault_at)
    first_ok = window.first_ok_after(fault_at)
    return {
        "fault_at_s": round(fault_at, 6),
        "window_ops": window_ops,
        "window_ok": window_ok,
        "availability": round(availability, 6) if availability is not None else None,
        "rto_s": round(first_ok - fault_at, 6) if first_ok is not None else None,
    }


#: Availability the fault window must reach for the recovery SLO.
MIN_AVAILABILITY = 0.9


def check_recovery_slo(metrics: dict) -> CheckResult:
    """Recovery SLO as a checker: availability during the fault window
    must reach :data:`MIN_AVAILABILITY` and a post-fault success must
    exist (finite RTO)."""
    violations = []
    availability = metrics.get("availability")
    if metrics.get("window_ops", 0) == 0:
        violations.append("no operations invoked during the fault window")
    if availability is not None and availability < MIN_AVAILABILITY:
        violations.append(
            f"availability {availability} below SLO {MIN_AVAILABILITY}"
        )
    if metrics.get("rto_s") is None:
        violations.append("no successful operation after the fault (RTO unbounded)")
    return CheckResult("recovery-slo", violations, metrics.get("window_ops", 0))


def overload_report(
    history: History,
    window_start: float,
    window_end: float,
    kinds: Optional[Iterable[str]] = None,
    saturation_goodput: Optional[float] = None,
    queue_peaks: Optional[dict] = None,
    shed: Optional[int] = None,
    admission: Optional[dict] = None,
    enabled: bool = True,
) -> dict:
    """Goodput and accepted-latency metrics over a saturation window.

    Measures the operations *invoked* inside ``[window_start,
    window_end)``: **offered** load, completions (``ok``), goodput per
    virtual second, and the nearest-rank p99 latency of the accepted
    (completed-ok) operations. ``saturation_goodput`` is the analytic
    capacity ceiling (worker slots / per-op service time) used to express
    goodput as a fraction of what a perfectly-shedding system could
    sustain. ``queue_peaks`` carries named peak queue depths (e.g. the
    gateway inflight peak) so unbounded queue growth is visible in the
    verdict; ``shed``/``admission`` embed the admission controller's
    totals and snapshot, and ``enabled`` records whether admission
    control was on (baselines are self-describing, like a verdict's
    ``recovery.enabled``). The dict is JSON-serializable and
    deterministic.
    """
    kind_set = set(kinds) if kinds is not None else None
    offered = completed = 0
    latencies = []
    for op in history.ops:
        if kind_set is not None and op.kind not in kind_set:
            continue
        if not (window_start <= op.t_invoke < window_end):
            continue
        offered += 1
        if op.status == "ok":
            completed += 1
            latencies.append(op.t_return - op.t_invoke)
    span = window_end - window_start
    goodput = completed / span if span > 0 else None
    p99 = nearest_rank(sorted(latencies), 0.99)
    fraction = None
    if goodput is not None and saturation_goodput:
        fraction = goodput / saturation_goodput
    return {
        "enabled": enabled,
        "window_s": [round(window_start, 6), round(window_end, 6)],
        "offered": offered,
        "completed_ok": completed,
        "goodput_per_s": round(goodput, 6) if goodput is not None else None,
        "accepted_p99_s": round(p99, 6) if p99 is not None else None,
        "saturation_goodput_per_s": (
            round(saturation_goodput, 6) if saturation_goodput else None
        ),
        "goodput_fraction": round(fraction, 6) if fraction is not None else None,
        "shed": shed,
        "queue_peaks": dict(sorted((queue_peaks or {}).items())),
        "admission": admission,
    }


def check_goodput_slo(
    report: dict,
    min_goodput_fraction: float = 0.7,
    max_accepted_p99: Optional[float] = None,
    max_queue_peak: Optional[float] = None,
) -> CheckResult:
    """Graceful-degradation SLO as a checker.

    Under saturating offered load the system must sustain
    ``min_goodput_fraction`` of the analytic saturation goodput, keep the
    latency of *accepted* operations under ``max_accepted_p99`` (load
    shedding trades availability for bounded latency — if accepted
    requests are also slow, the system is queueing, not shedding), and
    keep every reported queue peak under ``max_queue_peak`` (unbounded
    queue growth is the metastable-failure signature). A no-admission
    baseline run through this checker fails it — that failure is the
    *expected violation* of the baseline scenarios.
    """
    violations = []
    offered = report.get("offered", 0)
    if offered == 0:
        violations.append("no operations offered during the overload window")
    fraction = report.get("goodput_fraction")
    if fraction is not None and fraction < min_goodput_fraction:
        violations.append(
            f"goodput {report.get('goodput_per_s')}/s is {fraction} of "
            f"saturation {report.get('saturation_goodput_per_s')}/s, below "
            f"the {min_goodput_fraction} objective (goodput collapse)"
        )
    if max_accepted_p99 is not None:
        p99 = report.get("accepted_p99_s")
        if p99 is None:
            if offered:
                violations.append(
                    "no accepted operation completed inside the overload window"
                )
        elif p99 > max_accepted_p99:
            violations.append(
                f"accepted-operation p99 {p99}s exceeds bound {max_accepted_p99}s"
            )
    if max_queue_peak is not None:
        for name, peak in sorted(report.get("queue_peaks", {}).items()):
            if peak > max_queue_peak:
                violations.append(
                    f"unbounded queue growth: {name} peaked at {peak} "
                    f"(bound {max_queue_peak})"
                )
    return CheckResult("goodput-slo", violations, offered)
