"""Simulated cluster nodes with failure injection.

A :class:`Node` owns a CPU resource (for service-time modelling), a registry
of RPC handlers, and the set of processes running on it. Crashing a node
interrupts its processes and silently drops messages addressed to it, which
is how the reconfiguration experiments (§7.1, §7.5) inject failures.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional

from repro.sim.kernel import Environment, Process
from repro.sim.sync import Resource


class NodeDownError(Exception):
    """An operation was attempted from or on a crashed node."""


class Node:
    """A simulated machine.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Unique node name; the network routes by name.
    cpu_capacity:
        Number of concurrently executing operations this node can service
        (models vCPUs / worker threads).
    """

    def __init__(self, env: Environment, name: str, cpu_capacity: int = 8):
        self.env = env
        self.name = name
        self.cpu = Resource(env, capacity=cpu_capacity)
        self.alive = True
        self.handlers: Dict[str, Callable] = {}
        self._processes: List[Process] = []
        self.crash_count = 0
        #: Callbacks run (in registration order) when the node crashes /
        #: restarts. The network uses the crash hooks to fail in-flight
        #: RPCs fast; components use restart hooks to re-register their
        #: background processes after recovery (repro.chaos).
        self.crash_hooks: List[Callable[["Node"], None]] = []
        self.restart_hooks: List[Callable[["Node"], None]] = []
        #: Extra seconds of delay added to every message handled by this
        #: node — the chaos subsystem's slow-node (degraded CPU) fault.
        self.slowdown = 0.0

    def handle(self, method: str, handler: Callable) -> None:
        """Register an RPC handler. The handler receives the payload and may
        be a plain function (instant logic), a generator (a process that
        can yield timeouts / sub-RPCs), or a function that returns a
        pending :class:`~repro.sim.kernel.Event` (a deferred reply: the
        event's value, or its exception if it fails, is the reply once its
        callbacks run; the handler's own work rides in those callbacks)."""
        self.handlers[method] = handler

    def handler_for(self, method: str) -> Callable:
        try:
            return self.handlers[method]
        except KeyError:
            raise KeyError(f"node {self.name!r} has no handler for {method!r}") from None

    def spawn(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Run a process tied to this node's lifetime; interrupted on crash."""
        if not self.alive:
            raise NodeDownError(self.name)
        proc = self.env.process(generator, name=name or f"{self.name}:proc")
        self._processes.append(proc)
        if len(self._processes) > 64:
            self._processes = [p for p in self._processes if p.is_alive]
        return proc

    def crash(self) -> None:
        """Fail-stop: interrupt all node processes, drop future messages."""
        if not self.alive:
            return
        self.alive = False
        self.crash_count += 1
        for proc in self._processes:
            if proc.is_alive:
                proc.interrupt(NodeDownError(self.name))
        self._processes = []
        for hook in list(self.crash_hooks):
            hook(self)

    def restart(self) -> None:
        """Bring the node back (with empty volatile state — callers are
        responsible for re-registering processes, usually via restart
        hooks)."""
        if self.alive:
            return
        self.alive = True
        for hook in list(self.restart_hooks):
            hook(self)

    def __repr__(self) -> str:
        status = "up" if self.alive else "down"
        return f"<Node {self.name} {status}>"
