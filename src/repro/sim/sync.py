"""Synchronization primitives built on the simulation kernel.

Provides bounded FIFO queues (:class:`Queue`), keyed stores with waiters
(:class:`Store`), and counted resources modelling CPUs or connection pools
(:class:`Resource`). All primitives are fair: waiters are served in FIFO
order of arrival.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.kernel import _PENDING, _TRIGGERED, Environment, Event, Timeout, _fire


class QueueFull(Exception):
    """Raised by non-blocking puts on a full queue."""


class QueueEmpty(Exception):
    """Raised by non-blocking gets on an empty queue."""


class Queue:
    """A FIFO queue of items with optional capacity.

    ``put`` and ``get`` return events; yield them from a process. Zero-delay
    handoff is supported: a put wakes the oldest blocked getter at the same
    virtual time.
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None")
        self.env = env
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Event:
        event = Event(self.env)
        if self._getters:
            getter = self._popleft_live(self._getters)
            if getter is not None:
                getter.succeed(item)
                event.succeed()
                return event
        if not self.is_full:
            self._items.append(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def put_nowait(self, item: Any) -> None:
        if self._getters:
            getter = self._popleft_live(self._getters)
            if getter is not None:
                getter.succeed(item)
                return
        if self.is_full:
            raise QueueFull
        self._items.append(item)

    def get(self) -> Event:
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
            self._admit_putter()
        else:
            self._getters.append(event)
        return event

    def get_nowait(self) -> Any:
        if not self._items:
            raise QueueEmpty
        item = self._items.popleft()
        self._admit_putter()
        return item

    def _admit_putter(self) -> None:
        while self._putters and not self.is_full:
            putter, item = self._putters.popleft()
            if putter.triggered:
                continue
            self._items.append(item)
            putter.succeed()

    @staticmethod
    def _popleft_live(waiters: Deque[Event]) -> Optional[Event]:
        while waiters:
            event = waiters.popleft()
            if not event.triggered:
                return event
        return None


class Store:
    """A keyed blackboard: ``wait(key)`` blocks until ``set(key, value)``.

    Used for request/response correlation (RPC reply matching) and for
    condition-style notifications keyed by identifier.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._values: dict = {}
        self._waiters: dict = {}

    def set(self, key: Any, value: Any = None) -> None:
        waiters = self._waiters.pop(key, None)
        if waiters:
            for event in waiters:
                if not event.triggered:
                    event.succeed(value)
        else:
            self._values[key] = value

    def wait(self, key: Any) -> Event:
        event = Event(self.env)
        if key in self._values:
            event.succeed(self._values.pop(key))
        else:
            self._waiters.setdefault(key, []).append(event)
        return event

    def fail(self, key: Any, exc: BaseException) -> None:
        """Fail all current waiters on ``key``."""
        for event in self._waiters.pop(key, []):
            if not event.triggered:
                event.fail(exc)


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
