"""Scheduled, seed-deterministic fault injection.

A :class:`FaultPlan` is a list of timestamped fault events; a
:class:`FaultInjector` replays the plan as a process on the DES kernel.
Because the kernel is deterministic and the network's fault randomness
comes from a dedicated named stream (``chaos-net``), identical seeds
replay identical fault timelines and identical cluster behavior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.seam import Signal


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault action."""

    at: float
    action: str
    args: Tuple = ()
    kwargs: tuple = ()  # sorted (key, value) pairs — hashable + deterministic

    def kwargs_dict(self) -> dict:
        return dict(self.kwargs)


class FaultPlan:
    """A builder for fault timelines. All times are virtual seconds."""

    def __init__(self) -> None:
        self.events: List[FaultEvent] = []

    def _add(self, at: float, action: str, *args: Any, **kwargs: Any) -> "FaultPlan":
        self.events.append(
            FaultEvent(at, action, tuple(args), tuple(sorted(kwargs.items())))
        )
        return self

    # -- node faults ---------------------------------------------------
    def crash(self, at: float, node: str) -> "FaultPlan":
        return self._add(at, "crash", node)

    def restart(self, at: float, node: str) -> "FaultPlan":
        return self._add(at, "restart", node)

    def slowdown(self, at: float, node: str, extra: float) -> "FaultPlan":
        """Degrade a node: every message it handles takes ``extra`` more
        seconds (slow CPU / overloaded host)."""
        return self._add(at, "slowdown", node, extra)

    # -- connectivity faults -------------------------------------------
    def partition(self, at: float, a: str, b: str) -> "FaultPlan":
        return self._add(at, "partition", a, b)

    def heal(self, at: float, a: str, b: str) -> "FaultPlan":
        return self._add(at, "heal", a, b)

    def isolate(self, at: float, node: str) -> "FaultPlan":
        return self._add(at, "isolate", node)

    def unisolate(self, at: float, node: str) -> "FaultPlan":
        return self._add(at, "unisolate", node)

    def partition_groups(self, at: float, groups: List[List[str]]) -> "FaultPlan":
        return self._add(at, "partition_groups", tuple(tuple(g) for g in groups))

    def heal_all(self, at: float) -> "FaultPlan":
        return self._add(at, "heal_all")

    # -- link faults ---------------------------------------------------
    def link_fault(
        self, at: float, a: str, b: str,
        drop: float = 0.0, dup: float = 0.0, delay: float = 0.0,
        symmetric: bool = True,
    ) -> "FaultPlan":
        return self._add(at, "link_fault", a, b, drop=drop, dup=dup,
                         delay=delay, symmetric=symmetric)

    def clear_link_faults(self, at: float) -> "FaultPlan":
        return self._add(at, "clear_link_faults")

    # -- escape hatch --------------------------------------------------
    def call(self, at: float, label: str, fn: Callable[[], Any]) -> "FaultPlan":
        """Run an arbitrary (deterministic!) callable — scenario-specific
        recovery actions like re-configuring a restarted component."""
        self.events.append(FaultEvent(at, "call", (label, fn)))
        return self

    def sorted_events(self) -> List[FaultEvent]:
        """Events in firing order; insertion order breaks time ties."""
        order = sorted(range(len(self.events)), key=lambda i: (self.events[i].at, i))
        return [self.events[i] for i in order]


class FaultInjector:
    """Replays a :class:`FaultPlan` against a cluster's network."""

    def __init__(self, env: Environment, net: Network, plan: FaultPlan):
        self.env = env
        self.net = net
        self.plan = plan
        #: Machine-readable record of every applied fault (virtual time,
        #: action, arguments) — embedded in verdict artifacts so the fault
        #: timeline itself is part of the determinism guarantee.
        self.timeline: List[dict] = []
        #: Signal (see repro.sim.seam): a fault was applied (its timeline
        #: entry) — lands in the flight recorder's ring so black-box dumps
        #: show cause next to effect.
        self.fault_applied = Signal()    # (timeline entry)
        self.proc = None

    def start(self):
        self.proc = self.env.process(self._run(), name="chaos-injector")
        return self.proc

    def _run(self) -> Generator:
        for event in self.plan.sorted_events():
            if event.at > self.env.now:
                yield self.env.timeout(event.at - self.env.now)
            self._apply(event)

    def _apply(self, event: FaultEvent) -> None:
        net, args, kwargs = self.net, event.args, event.kwargs_dict()
        action = event.action
        if action == "crash":
            net.nodes[args[0]].crash()
        elif action == "restart":
            net.nodes[args[0]].restart()
        elif action == "slowdown":
            net.nodes[args[0]].slowdown = args[1]
        elif action == "partition":
            net.partition(args[0], args[1])
        elif action == "heal":
            net.heal(args[0], args[1])
        elif action == "isolate":
            net.isolate(args[0])
        elif action == "unisolate":
            net.unisolate(args[0])
        elif action == "partition_groups":
            net.partition_groups([list(g) for g in args[0]])
        elif action == "heal_all":
            net.heal_all()
        elif action == "link_fault":
            net.set_link_fault(args[0], args[1], **kwargs)
        elif action == "clear_link_faults":
            net.clear_link_faults()
        elif action == "call":
            args[1]()
        else:
            raise ValueError(f"unknown fault action {action!r}")
        entry = self._timeline_entry(event)
        self.timeline.append(entry)
        self.fault_applied(entry)

    def _timeline_entry(self, event: FaultEvent) -> dict:
        if event.action == "call":
            args: Tuple = (event.args[0],)  # label only; the callable is not serializable
        elif event.action == "partition_groups":
            args = ([list(g) for g in event.args[0]],)
        else:
            args = event.args
        entry = {"t": round(self.env.now, 9), "action": event.action, "args": list(args)}
        if event.kwargs:
            entry["kwargs"] = {k: v for k, v in event.kwargs}
        return entry
