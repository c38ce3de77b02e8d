"""Scheduled, seed-deterministic fault injection.

A :class:`FaultPlan` is data: timestamped events, each naming an action of
:data:`ACTIONS` with JSON-ready arguments. A :class:`FaultInjector`
replays it on the DES kernel and records each applied event with the
virtual time it fired, so a verdict's timeline is itself a plan. Network
fault randomness comes from one named stream (``chaos-net``), so
identical seeds replay identical timelines and cluster behavior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List

from repro.sim.seam import Signal


def book_primary(cluster, book_id: int) -> str:
    """The sequencer ordering ``book_id``'s log in the current term."""
    term = cluster.controller.current_term
    return term.assignment(term.log_for_book(book_id)).primary


#: How each action applies: ``ACTIONS[action](cluster, *args, **kwargs)``.
ACTIONS: Dict[str, Callable[..., None]] = {
    "crash": lambda cluster, node: cluster.net.nodes[node].crash(),
    "restart": lambda cluster, node: cluster.net.nodes[node].restart(),
    "slowdown": lambda cluster, node, extra: setattr(cluster.net.nodes[node], "slowdown", extra),
    "crash_primary": lambda cluster, book: cluster.net.nodes[book_primary(cluster, book)].crash(),
    "partition_groups": lambda cluster, groups: cluster.net.partition_groups(groups),
    "heal_all": lambda cluster: cluster.net.heal_all(),
    "link_fault": lambda cluster, a, b, **kwargs: cluster.net.set_link_fault(a, b, **kwargs),
    "clear_link_faults": lambda cluster: cluster.net.clear_link_faults(),
    "mark": lambda cluster, label: None,
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled action; ``args`` and ``kwargs`` are JSON-ready."""
    at: float
    action: str
    args: list = field(default_factory=list)
    kwargs: dict = field(default_factory=dict)


class FaultPlan:
    """A builder for fault timelines. All times are virtual seconds."""

    def __init__(self) -> None:
        self.events: List[FaultEvent] = []

    def _add(self, at: float, action: str, *args: Any, **kwargs: Any) -> "FaultPlan":
        if action not in ACTIONS:
            raise ValueError(f"unknown fault action {action!r}")
        self.events.append(FaultEvent(at, action, list(args), dict(sorted(kwargs.items()))))
        return self

    def crash(self, at: float, node: str) -> "FaultPlan":
        return self._add(at, "crash", node)

    def restart(self, at: float, node: str) -> "FaultPlan":
        return self._add(at, "restart", node)

    def slowdown(self, at: float, node: str, extra: float) -> "FaultPlan":
        """Slow CPU: every message ``node`` handles takes ``extra`` more seconds."""
        return self._add(at, "slowdown", node, extra)

    def crash_primary(self, at: float, book_id: int) -> "FaultPlan":
        """Crash the sequencer ordering ``book_id``'s log in the term that
        is current when the event fires, not the one it had at boot."""
        return self._add(at, "crash_primary", book_id)

    def partition_groups(self, at: float, groups: List[List[str]]) -> "FaultPlan":
        return self._add(at, "partition_groups", [list(g) for g in groups])

    def heal_all(self, at: float) -> "FaultPlan":
        return self._add(at, "heal_all")

    def link_fault(self, at: float, a: str, b: str, drop: float = 0.0, dup: float = 0.0,
                   delay: float = 0.0, symmetric: bool = True) -> "FaultPlan":
        return self._add(at, "link_fault", a, b, drop=drop, dup=dup,
                         delay=delay, symmetric=symmetric)

    def clear_link_faults(self, at: float) -> "FaultPlan":
        return self._add(at, "clear_link_faults")

    def mark(self, at: float, label: str) -> "FaultPlan":
        """A marker that applies nothing: the injected condition is the load."""
        return self._add(at, "mark", label)


class FaultInjector:
    """Replays a :class:`FaultPlan` against a cluster."""

    def __init__(self, cluster, plan: FaultPlan):
        self.cluster = cluster
        #: Planned events not applied yet, in firing order (plan order breaks ties).
        self.pending = sorted(plan.events, key=lambda event: event.at)
        #: Every applied fault, ``{"t", "action", "args"[, "kwargs"]}``: the
        #: verdict's timeline, part of the determinism guarantee.
        self.timeline: List[dict] = []
        #: Signal (see repro.sim.seam), fed to the flight recorder.
        self.fault_applied = Signal()    # (timeline entry)

    def start(self) -> None:
        """Start replaying the plan; an empty plan schedules nothing."""
        if self.pending:
            self.cluster.env.process(self._run(), name="chaos-injector")

    def _run(self) -> Generator:
        env = self.cluster.env
        while self.pending:
            if self.pending[0].at > env.now:
                yield env.timeout(self.pending[0].at - env.now)
            self._apply(self.pending.pop(0))

    def _apply(self, event: FaultEvent) -> None:
        ACTIONS[event.action](self.cluster, *event.args, **event.kwargs)
        self.record(event.action, *event.args, **event.kwargs)

    def record(self, action: str, *args: Any, **kwargs: Any) -> None:
        """Log ``action`` as fired now and signal it: how every applied
        event ends, and how a fault fired by a workflow hook reports."""
        entry = {"t": round(self.cluster.env.now, 9), "action": action, "args": list(args)}
        if kwargs:
            entry["kwargs"] = kwargs
        self.timeline.append(entry)
        self.fault_applied(entry)
