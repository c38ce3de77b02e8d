"""The synchronization primitive built on the simulation kernel.

:class:`Resource` is a counted resource modelling CPUs, worker pools or
connection pools. It is fair: waiters are served in FIFO order of arrival.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.sim.kernel import _PENDING, _TRIGGERED, Environment, Event, Timeout, _fire


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
        event = Event(self.env)
        if self._in_use < self.capacity:
            self._in_use += 1
            if self.monitor is not None:
                self.monitor(self._in_use)
            event.succeed()
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
