"""Synchronization primitives built on the simulation kernel.

:class:`Resource` is a counted resource modelling CPUs, worker pools or
connection pools. It is fair: waiters are served in FIFO order of arrival.
:class:`Ticker` is the sleep of a periodic loop: one heap entry per round
it runs, none while it waits for a deadline or has nothing to do.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.sim.kernel import _PENDING, _PROCESSED, _TRIGGERED, Environment, Event, Timeout, Timer, _fire


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

    def use(self, duration: float) -> Event:
        """Acquire, hold for ``duration`` of virtual time, release.

        One timeout whose first callback releases the slot. On a free slot
        it starts now; when all are busy it queues, FIFO with
        :meth:`request` waiters, and starts when a slot is handed to it —
        also if whoever asked for it has stopped waiting by then.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            hold = Timeout(self.env, duration)
        else:
            hold = _Hold(self.env, duration)
            self._waiters.append(hold)
        hold.callbacks.append(self.release)
        return hold


class Ticker:
    """The sleep of a loop that looks at something on a grid of ``interval``.

    ``yield ticker.sleep(until)`` parks the loop on an event that is not on
    the heap. With ``until`` set, its next round is armed for the first
    instant ``slept_at + k * interval`` strictly after ``until``; without,
    it stays parked until whoever gives it something to do calls
    :meth:`wake`, which brings the round forward to the first grid instant
    after the wake. Either way the loop runs exactly when it would have,
    had it kept ticking every interval and finding nothing, so sleeping
    moves no modelled time. A round is one heap entry: a timer whose
    callback runs the parked event's callbacks in place.
    """

    __slots__ = ("env", "interval", "_slept_at", "_parked", "_timer", "_due")

    def __init__(self, env: Environment, interval: float):
        if interval <= 0:
            raise ValueError(f"interval must be positive, not {interval}")
        self.env = env
        self.interval = interval
        self._slept_at = 0.0
        self._parked: Optional[Event] = None
        self._timer: Optional[Timer] = None
        self._due = 0.0

    def sleep(self, until: Optional[float] = None) -> Event:
        """The event the loop's next round waits for (one per call; a
        parked event a previous caller abandoned is forgotten, and its
        armed round with it)."""
        self.rest()
        self._slept_at = self.env._now
        self._parked = Event(self.env)
        if until is not None:
            self._arm(until)
        return self._parked

    def wake(self, at: Optional[float] = None) -> None:
        """There is something to do after ``at`` (default: now): bring the
        parked loop's next round forward to the first grid instant after
        it. A no-op when nobody is parked or an earlier round is armed."""
        if self._parked is not None:
            self._arm(self.env._now if at is None else at)

    def rest(self) -> None:
        """Nothing to do after all: drop the armed round and stay parked
        (the cancelled timer is a tombstone, not an event)."""
        timer = self._timer
        if timer is not None:
            self._timer = None
            timer.cancel()

    def _arm(self, after: float) -> None:
        env, interval, slept_at = self.env, self.interval, self._slept_at
        after = max(after, env._now)
        due = slept_at + ((after - slept_at) // interval + 1) * interval
        if due <= after:  # float rounding put ``after`` on a grid point
            due += interval
        timer = self._timer
        if timer is not None:
            if self._due <= due:
                return
            timer.cancel()
        self._due = due
        self._timer = env.timer(due - env._now, self._ring, self._parked)

    def _ring(self, parked: Event) -> None:
        self._parked = self._timer = None
        parked._run_callbacks()
