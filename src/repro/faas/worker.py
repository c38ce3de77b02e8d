"""Function nodes: bounded worker pools running registered functions.

A function node models Nightcore's engine + container fleet on one machine:
it accepts ``faas.exec`` requests, holds a worker slot for the duration of
the invocation (one in-flight request per container), applies a small
dispatch overhead, and runs the function handler inside the process that
handles the request.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator

from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.seam import Signal
from repro.sim.sync import Resource
from repro.faas.context import FunctionContext

DEFAULT_WORKERS = 64
#: Nightcore's internal dispatch cost (engine -> container message channel);
#: the Nightcore paper reports sub-100us invocation overheads.
DISPATCH_OVERHEAD = 50e-6


class FunctionNode:
    """A simulated function node (Nightcore engine + containers)."""

    #: Methods a layer may intercept with :func:`repro.sim.seam.wrap`.
    WRAP_POINTS = ("_h_exec",)

    def __init__(
        self,
        env: Environment,
        net: Network,
        name: str,
        workers: int = DEFAULT_WORKERS,
    ):
        self.env = env
        self.net = net
        self.node = net.register(Node(env, name, cpu_capacity=workers))
        self.workers = Resource(env, capacity=workers)
        self._functions: Dict[str, Callable] = {}
        #: Set by ``Gateway.add_function_node``; schedules child calls.
        self.gateway = None
        self.invocations = 0
        #: Signal (see repro.sim.seam): an invocation got its container
        #: slot after waiting ``waited`` seconds.
        self.slot_acquired = Signal()    # (waited)
        self.node.handle("faas.exec", self._h_exec)

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def queue_depth(self) -> int:
        """Invocations holding or waiting for a worker slot — the node's
        load signal for scheduling, autoscaling, and the queue gauges."""
        return self.workers.in_use + self.workers.queued

    def register_function(self, fn_name: str, handler: Callable) -> None:
        """``handler(ctx, arg)`` must be a generator function."""
        self._functions[fn_name] = handler

    def _h_exec(self, payload: dict) -> Generator:
        fn_name = payload["fn"]
        handler = self._functions.get(fn_name)
        if handler is None:
            raise KeyError(f"function {fn_name!r} not registered on {self.name}")
        queued_at = self.env.now
        req = self.workers.request()
        if req.is_alive:  # queued behind busy containers
            yield req
        self.slot_acquired(self.env.now - queued_at)
        try:
            yield self.env.timeout(DISPATCH_OVERHEAD)
            self.invocations += 1
            ctx = FunctionContext(
                node=self.node,
                gateway=self.gateway,
                call_id=f"{self.name}#{self.invocations}",
                book_id=payload.get("book_id"),
                positions=payload.get("positions"),
                tenant=payload.get("tenant"),
            )
            result = yield from handler(ctx, payload.get("arg"))
        finally:
            self.workers.release(req)
        return {"result": result, "positions": ctx.positions}
