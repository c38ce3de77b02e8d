"""DES-kernel profiling.

:class:`KernelProfiler` hooks the kernel's event loop (which picks the
profiled or the plain loop once per ``run()`` call, so detached costs
nothing per event) to record events processed, what kind of entry each
one was, event-queue depth, and events per virtual second.

All measurements are pure bookkeeping on existing events — profiling
never schedules anything, so it cannot perturb the simulation.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.kernel import Environment, _fire


class KernelProfiler:
    """Event-loop statistics of ``env``; installs itself as
    ``env.profiler``."""

    def __init__(self, env: Environment):
        self.env = env
        self.started_at = env.now
        self.events_processed = 0
        self.max_queue_depth = 0
        self.queue_depth_sum = 0
        #: (what the entry ran, for whom) -> events: the callback's
        #: qualified name — for an event's callback runner, the event's
        #: type — and the message method or process name, if it has one.
        self.events_by_kind: Dict[Tuple[str, Optional[str]], int] = {}
        env.profiler = self

    # ------------------------------------------------------------------
    # Kernel hook (called by Environment.run / step per event)
    # ------------------------------------------------------------------
    def on_event(self, now: float, queue_depth: int, fn: Callable[[Any], None], arg: Any) -> None:
        self.events_processed += 1
        self.queue_depth_sum += queue_depth
        if queue_depth > self.max_queue_depth:
            self.max_queue_depth = queue_depth
        # A network hop's argument is a call, a list of calls, or a reply
        # tuple that starts with one.
        subject = arg[0] if isinstance(arg, (list, tuple)) and arg else arg
        msg = getattr(subject, "msg", None)
        kind = (
            type(arg).__name__ if fn is _fire else fn.__qualname__,
            msg.method if msg is not None else getattr(subject, "name", None),
        )
        self.events_by_kind[kind] = self.events_by_kind.get(kind, 0) + 1

    def detach(self) -> None:
        """Remove the kernel hook."""
        if self.env.profiler is self:
            self.env.profiler = None

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

    def report_lines(self) -> List[str]:
        elapsed = self.env.now - self.started_at
        lines = [
            f"kernel: {self.events_processed} events over {elapsed:.3f}s virtual "
            f"({self.events_per_virtual_second():,.0f} events/vsec)",
            f"event queue: mean depth {self.mean_queue_depth:.1f}, "
            f"max depth {self.max_queue_depth}",
            "events by kind:",
        ]
        by_count = sorted(
            self.events_by_kind.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1] or "")
        )
        for (what, whom), count in by_count:
            lines.append(f"  {count:8d}  {what}" + (f"  {whom}" if whom else ""))
        return lines
