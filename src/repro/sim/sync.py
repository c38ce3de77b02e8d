"""Synchronization primitives built on the simulation kernel.

:class:`Resource` is a counted resource modelling CPUs, worker pools or
connection pools. It is fair: waiters are served in FIFO order of arrival.
:class:`Ticker` is the sleep of a periodic loop that costs nothing while
the loop has nothing to do.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.sim.kernel import _PENDING, _PROCESSED, _TRIGGERED, Environment, Event, Timeout, _fire


class _Hold(Timeout):
    """A :meth:`Resource.use` that found every slot busy: a timeout that
    is not on the heap until :meth:`Resource.release` hands it a slot."""

    __slots__ = ()

    def __init__(self, env: Environment, delay: float):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        Event.__init__(self, env)
        self.delay = delay


class Resource:
    """A counted resource (e.g. a node's worker pool).

    Usage from a process::

        req = resource.request()
        if req.is_alive:  # queued; a free slot is granted already processed
            yield req
        try:
            yield env.timeout(service_time)
        finally:
            resource.release(req)

    or via the :meth:`use` helper.
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        #: Optional observer called with the new in-use count whenever it
        #: changes (repro.obs.profile busy-time accounting). One None-check
        #: on the hot path when profiling is off.
        self.monitor = None

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return sum(1 for w in self._waiters if not w.triggered)

    def request(self) -> Event:
        """A slot: on a free one, an event that is already processed (no
        heap entry); otherwise a pending one, queued FIFO with
        :meth:`use` holds, that triggers when :meth:`release` hands it
        the slot."""
        event = Event(self.env)
        if self._in_use < self.capacity:
            self._in_use += 1
            if self.monitor is not None:
                self.monitor(self._in_use)
            event._state, event.callbacks = _PROCESSED, None
        else:
            self._waiters.append(event)
        return event

    def release(self, request: Optional[Event] = None) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter._state == _PENDING:
                # Handoff: the slot passes to a waiter, in-use unchanged.
                if isinstance(waiter, _Hold):
                    waiter._state = _TRIGGERED
                    self.env.call_later(waiter.delay, _fire, waiter)
                else:
                    waiter.succeed()
                return
        self._in_use -= 1
        if self._in_use < 0:
            raise RuntimeError("release() without matching request()")
        if self.monitor is not None:
            self.monitor(self._in_use)

    def use(self, duration: float) -> Event:
        """Acquire, hold for ``duration`` of virtual time, release.

        One timeout whose first callback releases the slot. On a free slot
        it starts now; when all are busy it queues, FIFO with
        :meth:`request` waiters, and starts when a slot is handed to it —
        also if whoever asked for it has stopped waiting by then.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            if self.monitor is not None:
                self.monitor(self._in_use)
            hold = Timeout(self.env, duration)
        else:
            hold = _Hold(self.env, duration)
            self._waiters.append(hold)
        hold.callbacks.append(self.release)
        return hold


class Ticker:
    """The sleep of a loop that looks at something every ``interval``.

    ``yield ticker.sleep(busy)`` is a plain timeout while the loop is
    ``busy``. A loop that just looked and found nothing to do parks
    instead — on an event that is not on the heap — until whoever gives
    it something to do calls :meth:`wake`. The woken loop resumes at the
    first instant ``slept_at + k * interval`` after the wake: exactly when
    it would next have run had it kept ticking and finding nothing, so
    parking moves no modelled time.
    """

    __slots__ = ("env", "interval", "_slept_at", "_parked")

    def __init__(self, env: Environment, interval: float):
        if interval <= 0:
            raise ValueError(f"interval must be positive, not {interval}")
        self.env = env
        self.interval = interval
        self._slept_at = 0.0
        self._parked: Optional[Event] = None

    def sleep(self, busy: bool) -> Event:
        """The event the loop's next round waits for (one per call; a
        parked event a previous caller abandoned is forgotten)."""
        if busy:
            self._parked = None
            return Timeout(self.env, self.interval)
        self._slept_at = self.env._now
        self._parked = Event(self.env)
        return self._parked

    def wake(self) -> None:
        """There is something to do: schedule the parked loop's next round
        on its grid. A no-op when nobody is parked or a wake already did."""
        parked = self._parked
        if parked is None:
            return
        self._parked = None
        env, interval = self.env, self.interval
        elapsed = env._now - self._slept_at
        due = self._slept_at + (elapsed // interval + 1) * interval
        if due <= env._now:  # float rounding put the wake on a grid point
            due += interval
        parked._state = _TRIGGERED
        env.call_later(due - env._now, _fire, parked)
