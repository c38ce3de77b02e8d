"""DES-kernel and per-node profiling.

:class:`KernelProfiler` hooks the kernel's event loop (which picks the
profiled or the plain loop once per ``run()`` call, so detached costs
nothing per event) to record events processed, what kind of entry each
one was, event-queue depth, and events per virtual second. Attached nodes
additionally integrate CPU busy time (the area under the in-use curve of
the node's :class:`~repro.sim.sync.Resource`), giving per-node utilization
over the profiled window.

All measurements are pure bookkeeping on existing events — profiling
never schedules anything, so it cannot perturb the simulation.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.kernel import Environment, _fire
from repro.sim.node import Node


class NodeProfile:
    """Busy-time integral of one node's CPU resource."""

    __slots__ = ("name", "capacity", "busy_time", "_env", "_in_use", "_last")

    def __init__(self, env: Environment, node: Node):
        self.name = node.name
        self.capacity = node.cpu.capacity
        self.busy_time = 0.0  # cpu-seconds of virtual time
        self._env = env
        self._in_use = node.cpu.in_use
        self._last = env.now

    def on_change(self, in_use: int) -> None:
        now = self._env.now
        self.busy_time += self._in_use * (now - self._last)
        self._in_use = in_use
        self._last = now

    def settle(self) -> None:
        """Fold the time since the last change into the integral."""
        self.on_change(self._in_use)

    def utilization(self, since: float, now: Optional[float] = None) -> float:
        """Mean fraction of CPU capacity busy over [since, now]."""
        self.settle()
        end = self._env.now if now is None else now
        elapsed = end - since
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self.capacity)


class KernelProfiler:
    """Event-loop statistics plus per-node busy time.

    Parameters
    ----------
    env:
        The environment to profile; installs itself as ``env.profiler``.
    bucket:
        Width (virtual seconds) of the events-per-interval buckets.
    """

    def __init__(self, env: Environment, bucket: float = 1.0):
        if bucket <= 0:
            raise ValueError("bucket width must be positive")
        self.env = env
        self.bucket = bucket
        self.started_at = env.now
        self.events_processed = 0
        self.max_queue_depth = 0
        self.queue_depth_sum = 0
        #: int(now / bucket) -> events processed in that interval
        self.events_by_bucket: Dict[int, int] = {}
        #: (what the entry ran, for whom) -> events: the callback's
        #: qualified name — for an event's callback runner, the event's
        #: type — and the message method or process name, if it has one.
        self.events_by_kind: Dict[Tuple[str, Optional[str]], int] = {}
        self.nodes: Dict[str, NodeProfile] = {}
        env.profiler = self

    # ------------------------------------------------------------------
    # Kernel hook (called by Environment.run / step per event)
    # ------------------------------------------------------------------
    def on_event(self, now: float, queue_depth: int, fn: Callable[[Any], None], arg: Any) -> None:
        self.events_processed += 1
        self.queue_depth_sum += queue_depth
        if queue_depth > self.max_queue_depth:
            self.max_queue_depth = queue_depth
        key = int(now / self.bucket)
        self.events_by_bucket[key] = self.events_by_bucket.get(key, 0) + 1
        # A network hop's argument is a call, a list of calls, or a reply
        # tuple that starts with one.
        subject = arg[0] if isinstance(arg, (list, tuple)) and arg else arg
        msg = getattr(subject, "msg", None)
        kind = (
            type(arg).__name__ if fn is _fire else fn.__qualname__,
            msg.method if msg is not None else getattr(subject, "name", None),
        )
        self.events_by_kind[kind] = self.events_by_kind.get(kind, 0) + 1

    # ------------------------------------------------------------------
    # Node attachment
    # ------------------------------------------------------------------
    def attach_node(self, node: Node) -> NodeProfile:
        profile = self.nodes.get(node.name)
        if profile is None:
            profile = self.nodes[node.name] = NodeProfile(self.env, node)
            node.cpu.monitor = profile.on_change
        return profile

    def detach(self) -> None:
        """Remove all hooks (kernel and nodes)."""
        if self.env.profiler is self:
            self.env.profiler = None
        for profile in self.nodes.values():
            profile.settle()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def mean_queue_depth(self) -> float:
        if not self.events_processed:
            return 0.0
        return self.queue_depth_sum / self.events_processed

    def events_per_virtual_second(self) -> float:
        elapsed = self.env.now - self.started_at
        if elapsed <= 0:
            return 0.0
        return self.events_processed / elapsed

    def busiest_nodes(self, top: int = 5) -> List[NodeProfile]:
        for profile in self.nodes.values():
            profile.settle()
        ranked = sorted(
            self.nodes.values(), key=lambda p: (-p.busy_time, p.name)
        )
        return ranked[:top]

    def summary(self) -> Dict[str, float]:
        return {
            "events_processed": self.events_processed,
            "events_per_vsecond": self.events_per_virtual_second(),
            "max_queue_depth": self.max_queue_depth,
            "mean_queue_depth": self.mean_queue_depth,
        }

    def report_lines(self) -> List[str]:
        elapsed = self.env.now - self.started_at
        lines = [
            f"kernel: {self.events_processed} events over {elapsed:.3f}s virtual "
            f"({self.events_per_virtual_second():,.0f} events/vsec)",
            f"event queue: mean depth {self.mean_queue_depth:.1f}, "
            f"max depth {self.max_queue_depth}",
        ]
        for profile in self.busiest_nodes(top=len(self.nodes)):
            util = profile.utilization(self.started_at)
            lines.append(
                f"  node {profile.name}: busy {profile.busy_time:.4f} cpu-s "
                f"({util:.1%} of {profile.capacity} cpus)"
            )
        lines.append("events by kind:")
        by_count = sorted(
            self.events_by_kind.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1] or "")
        )
        for (what, whom), count in by_count:
            lines.append(f"  {count:8d}  {what}" + (f"  {whom}" if whom else ""))
        return lines
