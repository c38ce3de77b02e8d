"""repro.chaos — deterministic fault injection + guarantee checking.

Jepsen-style testing for the simulated Boki cluster: a seed-deterministic
plan of :func:`fault` events drives crashes, partitions, link faults and
slowdowns through an injector process on the DES kernel; client
operations are recorded in a global :class:`History`; offline checkers
then verify the paper's guarantees — BokiStore linearizability, BokiFlow
exactly-once effects, BokiQueue no-loss/no-duplicate delivery, and
metalog monotonicity/seal consistency — plus liveness: availability
during the fault window and recovery time (RTO) against per-scenario
SLOs.

Run scenarios with ``python -m repro.chaos run <scenario> --seeds N``.
"""

from repro.chaos.faults import FaultEvent, FaultInjector, fault
from repro.chaos.history import History, Op
from repro.chaos.checkers import (
    CheckResult,
    check_exactly_once,
    check_metalog,
    check_queue_delivery,
    check_store_linearizability,
)
from repro.chaos.liveness import check_recovery_slo, recovery_metrics
from repro.chaos.runner import run_scenario, write_verdict

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "fault",
    "History",
    "Op",
    "CheckResult",
    "check_exactly_once",
    "check_metalog",
    "check_queue_delivery",
    "check_recovery_slo",
    "check_store_linearizability",
    "recovery_metrics",
    "run_scenario",
    "write_verdict",
]
