"""Scheduled, seed-deterministic fault injection: a plan is a list of
:func:`fault` events, and a :class:`FaultInjector` replays it and records
each applied event with the virtual time it fired, so a verdict's timeline
is itself a plan. Network faults draw from one named stream
(``chaos-net``): identical seeds replay identical runs."""

from __future__ import annotations

import inspect
import json
from typing import Any, Callable, Dict, Generator, List, NamedTuple

from repro.sim.seam import Signal


def book_primary(cluster, book_id: int) -> str:
    """The sequencer ordering ``book_id``'s log in the current term."""
    term = cluster.controller.current_term
    return term.assignment(term.log_for_book(book_id)).primary


#: The fault vocabulary. An event applies as ``ACTIONS[action](cluster,
#: *args, **kwargs)``; an action's signature is the arguments it takes.
ACTIONS: Dict[str, Callable[..., None]] = {
    "crash": lambda cluster, node: cluster.net.nodes[node].crash(),
    "restart": lambda cluster, node: cluster.net.nodes[node].restart(),
    # Slow CPU: every message ``node`` handles takes ``extra`` more seconds.
    "slowdown": lambda cluster, node, extra: setattr(cluster.net.nodes[node], "slowdown", extra),
    # The primary of the term current when the event fires, not at boot.
    "crash_primary": lambda cluster, book: cluster.net.nodes[book_primary(cluster, book)].crash(),
    "partition_groups": lambda cluster, groups: cluster.net.partition_groups(groups),
    "heal_all": lambda cluster: cluster.net.heal_all(),
    "link_fault": lambda cluster, a, b, drop=0.0, dup=0.0, delay=0.0, symmetric=True:
        cluster.net.set_link_fault(a, b, drop, dup, delay, symmetric),
    "clear_link_faults": lambda cluster: cluster.net.clear_link_faults(),
    "mark": lambda cluster, label: None,
}


class FaultEvent(NamedTuple):
    """One scheduled action; ``args`` and ``kwargs`` are JSON-ready."""
    at: float
    action: str
    args: list
    kwargs: dict


def fault(at: float, action: str, *args: Any, **kwargs: Any) -> FaultEvent:
    """The event applying ``action`` at virtual second ``at``, bound to its
    :data:`ACTIONS` signature: required parameters become ``args``, every
    defaulted one a ``kwargs`` entry (sorted). An unknown action raises
    ``ValueError``, a missing or extra argument ``TypeError``."""
    if action not in ACTIONS:
        raise ValueError(f"unknown fault action {action!r}")
    signature = inspect.signature(ACTIONS[action])
    bound = signature.bind(None, *args, **kwargs)
    bound.apply_defaults()
    values = json.loads(json.dumps(bound.arguments))
    required = [name for name, p in signature.parameters.items() if p.default is p.empty]
    args = [values.pop(name) for name in required][1:]  # the first is ``cluster``
    return FaultEvent(at, action, args, dict(sorted(values.items())))


class FaultInjector:
    """Replays a plan (a list of :class:`FaultEvent`) against a cluster."""

    def __init__(self, cluster, events: List[FaultEvent]):
        self.cluster = cluster
        #: Planned events not applied yet, in firing order (plan order breaks
        #: ties). An event whose action raised stays here.
        self.pending = sorted(events, key=lambda event: event.at)
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
            event = self.pending[0]
            if event.at > env.now:
                yield env.timeout(event.at - env.now)
            ACTIONS[event.action](self.cluster, *event.args, **event.kwargs)
            self.pending.pop(0)
            self.record(event.action, *event.args, **event.kwargs)

    def record(self, action: str, *args: Any, **kwargs: Any) -> None:
        """Log ``action`` as fired now and signal it: how every applied
        event ends, and how a fault fired by a workflow hook reports."""
        entry = {"t": round(self.cluster.env.now, 9), "action": action, "args": list(args)}
        if kwargs:
            entry["kwargs"] = kwargs
        self.timeline.append(entry)
        for observe in self.fault_applied:
            observe(entry)
