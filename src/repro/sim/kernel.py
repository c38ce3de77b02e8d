"""Discrete-event simulation kernel.

A small, deterministic event-loop in the style of SimPy: simulated
activities are Python generators ("processes") that yield :class:`Event`
objects; the kernel resumes a process when the event it waits on fires.
Virtual time only advances between events, so a simulation that models
minutes of cluster activity runs in milliseconds of wall time and is exactly
reproducible.

The heap holds ``(time, eid, fn, arg)`` entries and the loop calls
``fn(arg)``. Triggering an event pushes one entry; work that is a fixed
chain of delays (a process bootstrap, a message hop, an RPC deadline) is
pushed as a bare callback with :meth:`Environment.call_later` /
:meth:`Environment.timer` and allocates no event at all. Entries at one
instant run in ``eid`` order, i.e. in the order they were scheduled
(``docs/architecture.md`` spells out the ordering contract).

Example
-------
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(1.5)
...     return env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
1.5
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process that was interrupted by another process.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event lifecycle states.
_PENDING = 0
_TRIGGERED = 1  # scheduled on the heap, callbacks not yet run
_PROCESSED = 2  # callbacks have run


class Event:
    """A condition that processes can wait for.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    *triggers* it, scheduling its callbacks to run at the current simulation
    time. Each event may trigger only once. ``callbacks`` is ``None`` once
    they have run.
    """

    __slots__ = ("env", "callbacks", "_state", "_value", "_ok")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._state = _PENDING
        self._value: Any = None
        self._ok = True

    @property
    def triggered(self) -> bool:
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        return self._state == _PROCESSED

    @property
    def is_alive(self) -> bool:
        """True until the event triggers (for a process: still running)."""
        return self._state == _PENDING

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's result value, or the exception if it failed."""
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._state = _TRIGGERED
        self.env.call_later(0.0, _fire, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self._state = _TRIGGERED
        self.env.call_later(0.0, _fire, self)
        return self

    def _run_callbacks(self) -> None:
        self._state = _PROCESSED
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:
        state = {_PENDING: "pending", _TRIGGERED: "triggered", _PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at {id(self):#x}>"


_fire = Event._run_callbacks


class Timeout(Event):
    """An event that fires after a fixed delay of virtual time."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._state = _TRIGGERED
        self._value = value
        self._ok = True
        self.delay = delay
        env.call_later(delay, _fire, self)

    @property
    def is_alive(self) -> bool:
        """True until the timeout fires."""
        return self._state != _PROCESSED


class Timer:
    """A cancellable delayed callback (see :meth:`Environment.timer`).

    Cancelling leaves a tombstone on the heap that the loop skips without
    advancing the clock; the environment sweeps tombstones out once they
    are the majority, so a cancelled deadline does not hold heap space
    until it would have fired.
    """

    __slots__ = ("env", "fn", "arg")

    def __init__(self, env: "Environment", fn: Callable[[Any], None], arg: Any):
        self.env = env
        self.fn: Optional[Callable[[Any], None]] = fn
        self.arg = arg

    def cancel(self) -> None:
        """Stop the callback from running; a no-op once fired or cancelled."""
        if self.fn is not None:
            self.fn = self.arg = None
            self.env._tombstone()


class Process(Event):
    """Wraps a generator and drives it through the events it yields.

    A process is itself an event that triggers when the generator returns
    (value = return value) or raises (the process fails with the exception,
    which propagates to anything waiting on it).

    A process that nobody is waiting on when its generator ends is
    processed in place, inside the entry that finished it, with no
    completion entry: a later ``yield proc`` bounces, as for any event
    that has already been processed.

    ``on_exit`` is for a process nobody joins or interrupts (a message
    handler's): its first step runs inside the entry that creates it, and
    when the generator returns or raises, ``on_exit(ok, value)`` is called
    from the entry that finished it. Such a process costs no heap entries
    of its own.
    """

    __slots__ = ("_generator", "name", "_waiting_on", "_stale_bounces", "trace_ctx", "_on_exit")

    def __init__(self, env: "Environment", generator: Generator, name: Optional[str] = None,
                 on_exit: Optional[Callable[[bool, Any], None]] = None):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = []
        self._state = _PENDING
        self._value = None
        self._ok = True
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        #: Bounce entries (below) still on the heap whose wait an
        #: interrupt already ended; they fire first and are swallowed.
        self._stale_bounces = 0
        # Ambient trace context (repro.obs): inherited from whatever
        # created this process, so a spawned sub-process stays in the
        # creator's trace. None whenever tracing is off.
        active = env._active
        self.trace_ctx = active.trace_ctx if active is not None else None
        self._on_exit = on_exit
        if on_exit is None:
            # Bootstrap: first step at the current time, as a bare heap entry.
            env.call_later(0.0, Process._start, self)
        else:
            self._step(True, None)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            return
        if self._waiting_on is self:
            raise SimulationError("a process cannot interrupt itself")
        self.env.call_later(0.0, self._interrupted, cause)

    def _interrupted(self, cause: Any) -> None:
        if self._state != _PENDING:
            return
        # Detach from whatever we were waiting on so the stale resume
        # does nothing when that event fires later.
        target = self._waiting_on
        if target is not None:
            if target._state == _PROCESSED:
                self._stale_bounces += 1
            elif self._resume in target.callbacks:
                target.callbacks.remove(self._resume)
            self._waiting_on = None
        self._step(False, Interrupt(cause))

    def _start(self) -> None:
        self._step(True, None)

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        self._step(event._ok, event._value)

    def _bounce(self) -> None:
        """Resume from an event that had already been processed when the
        generator yielded it (a bare heap entry stands in for the wait)."""
        if self._stale_bounces:
            self._stale_bounces -= 1
        else:
            self._resume(self._waiting_on)

    def _step(self, ok: bool, value: Any) -> None:
        """Send ``value`` into the generator (throw it if not ``ok``) and
        wait on whatever it yields next."""
        env = self.env
        prev_active = env._active
        env._active = self
        try:
            if ok:
                target = self._generator.send(value)
            else:
                target = self._generator.throw(value)
        except StopIteration as stop:
            env._active = prev_active
            self._exit(True, stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to waiters
            env._active = prev_active
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self._exit(False, exc)
            return
        env._active = prev_active
        if not isinstance(target, Event):
            error = SimulationError(f"process {self.name!r} yielded non-event {target!r}")
            self._generator.close()
            self._exit(False, error)
            return
        self._waiting_on = target
        if target._state == _PROCESSED:
            # Already happened: resume at the current time.
            env.call_later(0.0, Process._bounce, self)
        else:
            target.callbacks.append(self._resume)

    def _exit(self, ok: bool, value: Any) -> None:
        """The generator returned ``value`` (or raised it, if not ``ok``)."""
        on_exit = self._on_exit
        if on_exit is None and self.callbacks:
            # Somebody waits: they are woken from an entry of their own.
            if ok:
                self.succeed(value)
            else:
                self.fail(value)
            return
        self._ok, self._value = ok, value
        self._state, self.callbacks = _PROCESSED, None
        if on_exit is not None:
            on_exit(ok, value)


class _Condition(Event):
    """Base for AnyOf/AllOf combinators."""

    __slots__ = ("events", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._done = 0
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.processed:
                self._on_event(event)
            else:
                event.callbacks.append(self._on_event)

    def _on_event(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._done += 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _collect(self) -> dict:
        return {e: e.value for e in self.events if e.triggered and e.ok}


class AnyOf(_Condition):
    """Triggers when any of the given events has triggered."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._done >= 1


class AllOf(_Condition):
    """Triggers when all of the given events have triggered."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._done >= len(self.events)


class _Gather(Event):
    """See :meth:`Environment.gather`."""

    __slots__ = ("_pending",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._value = events = list(events)
        self._pending = 0
        for event in events:
            if event._state != _PROCESSED:
                self._pending += 1
                event.callbacks.append(self._on_member)
        if not self._pending:
            self._state, self.callbacks = _PROCESSED, None

    def _on_member(self, event: Event) -> None:
        self._pending -= 1
        if not self._pending:
            self._run_callbacks()


#: Tombstones are swept once there are this many and they outnumber the
#: live entries.
_SWEEP_MIN = 32
_FOREVER = float("inf")


class Environment:
    """The simulation environment: virtual clock plus the event heap."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: ``(time, eid, fn, arg)``; ``fn is None`` marks a :class:`Timer`.
        self._heap: List[tuple] = []
        #: Scheduling counter, the tie-break among entries at one instant.
        #: (Not a count of processed events: cancelled timers consume one.)
        self._eid = 0
        self._tombstones = 0
        #: Carrier of the ambient trace context: the :class:`Process` being
        #: stepped, or a callback chain (an in-flight network call) that
        #: installed itself while its callbacks run. Anything with a
        #: ``trace_ctx`` attribute; what it creates inherits that context.
        self._active: Any = None
        #: Optional repro.obs.profile.KernelProfiler, looked at once per
        #: :meth:`run` / :meth:`step` call (not per event).
        self.profiler = None
        #: Heap entries run so far, updated when :meth:`run` / :meth:`step`
        #: return.
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time, in seconds."""
        return self._now

    def call_later(self, delay: float, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Run ``fn(arg)`` after ``delay``: a bare heap entry, no event."""
        self._eid += 1
        heappush(self._heap, (self._now + delay, self._eid, fn, arg))

    def timer(self, delay: float, fn: Callable[[Any], None], arg: Any = None) -> Timer:
        """Like :meth:`call_later`, but returns a handle to cancel it."""
        timer = Timer(self, fn, arg)
        self._eid += 1
        heappush(self._heap, (self._now + delay, self._eid, None, timer))
        return timer

    def _tombstone(self) -> None:
        self._tombstones += 1
        if self._tombstones >= _SWEEP_MIN and self._tombstones * 2 > len(self._heap):
            # In place: a running loop holds a reference to the list.
            self._heap[:] = [e for e in self._heap if e[2] is not None or e[3].fn is not None]
            heapify(self._heap)
            self._tombstones = 0

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def gather(self, events: Iterable[Event]) -> Event:
        """Wait for every one of ``events``, whatever their outcome.

        The returned event is processed together with the last member to
        be processed — inside that member's heap entry, so the join costs
        no entry of its own — or is already processed if they all are. It
        never fails: its value is the list of members, and the waiter
        inspects each one's ``ok`` / ``value``.
        """
        return _Gather(self, events)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the heap drains, ``until`` is reached, or ``max_events``.

        When ``until`` is given the clock is advanced exactly to ``until``
        even if the heap drains earlier, matching SimPy semantics. A
        profiler attached or detached while this call runs takes effect
        at the next call.
        """
        stopped = self._pick_loop()(_FOREVER if until is None else until, max_events)
        if until is not None and not stopped and self._now < until:
            self._now = until

    def _pick_loop(self) -> Callable[[float, Optional[int]], bool]:
        return self._loop if self.profiler is None else self._profiled_loop

    def _loop(self, until: float, max_events: Optional[int]) -> bool:
        """Process entries up to ``until``; True if ``max_events`` ended it."""
        heap = self._heap
        processed = 0
        try:
            while heap:
                entry = heappop(heap)
                at, _, fn, arg = entry
                if at > until:
                    heappush(heap, entry)
                    break
                if fn is None:  # a Timer
                    fn = arg.fn
                    if fn is None:
                        self._tombstones -= 1
                        continue
                    arg.fn, arg = None, arg.arg
                self._now = at
                fn(arg)
                processed += 1
                if processed == max_events:
                    return True
            return False
        finally:
            self.events_processed += processed

    def _profiled_loop(self, until: float, max_events: Optional[int]) -> bool:
        """:meth:`_loop` reporting each entry to the attached profiler."""
        heap, on_event = self._heap, self.profiler.on_event
        processed = 0
        try:
            while heap:
                entry = heappop(heap)
                at, _, fn, arg = entry
                if at > until:
                    heappush(heap, entry)
                    break
                if fn is None:
                    fn = arg.fn
                    if fn is None:
                        self._tombstones -= 1
                        continue
                    arg.fn, arg = None, arg.arg
                self._now = at
                on_event(at, len(heap), fn, arg)
                fn(arg)
                processed += 1
                if processed == max_events:
                    return True
            return False
        finally:
            self.events_processed += processed

    def run_until(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` triggers (or ``limit`` virtual time passes).

        Unlike :meth:`run`, this terminates even when perpetual background
        processes (heartbeats, sweepers) keep the heap non-empty. Returns the
        event's value; re-raises its exception if it failed. Nothing
        scheduled after ``limit`` runs: the clock stops at ``limit``.
        """
        # Wait for *processed* (callbacks ran), not *triggered*: a Timeout
        # is triggered (scheduled) at creation, long before it fires.
        loop, bound = self._pick_loop(), _FOREVER if limit is None else limit
        while event._state != _PROCESSED:
            if not loop(bound, 1):
                if self.peek() is None:
                    raise SimulationError("event heap drained before event triggered")
                self._now = max(self._now, limit)
                raise SimulationError(f"run_until hit time limit {limit}")
        if not event.ok:
            raise event.value
        return event.value

    def step(self) -> bool:
        """Process a single event; returns False if the heap is empty."""
        return self._pick_loop()(_FOREVER, 1)

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or None if the heap is empty."""
        heap = self._heap
        while heap:
            at, _, fn, arg = heap[0]
            if fn is not None or arg.fn is not None:
                return at
            heappop(heap)  # a cancelled timer
            self._tombstones -= 1
        return None
