"""DES-kernel profiling.

:class:`KernelProfiler` attaches at the two places an entry enters the
kernel's heap, ``Environment.call_later`` and ``Environment.timer``: it
shadows both on the env instance, so each new entry runs through the
profiler first, and reroutes the entries already queued the same way. It
takes effect at once, and so does :meth:`KernelProfiler.detach`; an env
takes one profiler at a time. It records events processed, what kind of
entry each one was, event-queue depth, and events per virtual second.

All measurements are pure bookkeeping on existing events — profiling
never schedules anything, so it cannot perturb the simulation.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.kernel import Environment, Timer, _fire


class KernelProfiler:
    """Event-loop statistics of ``env`` from now until :meth:`detach`."""

    def __init__(self, env: Environment):
        if "call_later" in vars(env):
            raise ValueError("a profiler is already attached to this environment")
        self.env = env
        self.started_at = env.now
        self.events_processed = 0
        self.max_queue_depth = 0
        self.queue_depth_sum = 0
        #: (what the entry ran, for whom) -> events: the callback's
        #: qualified name — for an event's callback runner, the event's
        #: type — and the message method or process name, if it has one.
        self.events_by_kind: Dict[Tuple[str, Optional[str]], int] = {}
        count, call_later, timer = self._count, env.call_later, env.timer

        def counted_call_later(delay: float, fn: Callable[[Any], None], arg: Any = None) -> None:
            call_later(delay, partial(count, fn), arg)

        def counted_timer(delay: float, fn: Callable[[Any], None], arg: Any = None) -> Timer:
            return timer(delay, partial(count, fn), arg)

        env.call_later, env.timer = counted_call_later, counted_timer
        self._reroute(lambda fn: partial(count, fn))
        self._attached = True

    def _count(self, fn: Callable[[Any], None], arg: Any) -> None:
        """Run one rerouted entry, counting it first. The loop has just
        popped it, so the heap holds the entries it left behind."""
        queue_depth = len(self.env._heap)
        self.events_processed += 1
        self.queue_depth_sum += queue_depth
        if queue_depth > self.max_queue_depth:
            self.max_queue_depth = queue_depth
        # A network hop's argument is a call, a list of calls, or a reply
        # tuple that starts with one.
        subject = arg[0] if isinstance(arg, (list, tuple)) and arg else arg
        method = getattr(subject, "method", None)
        kind = (
            type(arg).__name__ if fn is _fire else fn.__qualname__,
            method if method is not None else getattr(subject, "name", None),
        )
        self.events_by_kind[kind] = self.events_by_kind.get(kind, 0) + 1
        fn(arg)

    def _reroute(self, route: Callable[[Callable], Callable]) -> None:
        """Replace every queued entry's callback with ``route(callback)``
        in place. The argument and the ``(time, eid)`` key stay, so the
        heap order does not change, a live ``Timer`` keeps its ``arg``,
        and a cancelled timer stays cancelled."""
        heap = self.env._heap
        for i, (at, eid, fn, arg) in enumerate(heap):
            if fn is not None:
                heap[i] = (at, eid, route(fn), arg)
            elif arg.fn is not None:  # a live Timer
                arg.fn = route(arg.fn)

    def detach(self) -> None:
        """Stop counting at once: remove the shadows and hand the entries
        still queued back their own callbacks, so each runs once,
        uncounted. A no-op once detached."""
        if not self._attached:
            return
        self._attached, env, count = False, self.env, self._count
        del env.call_later, env.timer
        self._reroute(lambda fn: fn.args[0] if type(fn) is partial and fn.func == count else fn)

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
