"""Bounded inflight windows and CoDel-style queue-delay shedding.

These are the *node-side* half of admission control: engines and storage
nodes used to queue work unboundedly on their CPU resources, which is
what makes overload metastable — by the time a request reaches the
front, its client has timed out and retried, so the server burns all its
capacity on dead work. A :class:`BoundedWindow` caps how much work a
node accepts at all; a :class:`CoDelShedder` additionally sheds when the
*standing* queue delay has exceeded a target for a sustained interval,
following the CoDel discipline (Nichols & Jacobson, CACM 2012): shed one
request when the delay has been above :data:`CODEL_TARGET` for a full
:data:`CODEL_INTERVAL`, then the next after ``interval/sqrt(2)``, then
``interval/sqrt(3)`` — the shed rate ramps up until the queue drains
back below target.

Both are pure arithmetic state machines (no RNG, no kernel events):
under-capacity traffic never trips them, preserving byte-identical
fault-free runs with admission enabled.
"""

from __future__ import annotations

from math import sqrt
from typing import Optional

#: Standing queue delay (seconds) above which CoDel starts counting.
CODEL_TARGET = 0.010
#: How long (seconds) the delay must stay above target before a shed.
CODEL_INTERVAL = 0.100


class BoundedWindow:
    """A hard cap on concurrently admitted work at one node."""

    __slots__ = ("capacity", "inflight", "peak", "admitted", "shed")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("window capacity must be >= 1")
        self.capacity = capacity
        self.inflight = 0
        self.peak = 0
        self.admitted = 0
        self.shed = 0

    @property
    def full(self) -> bool:
        return self.inflight >= self.capacity

    def enter(self) -> None:
        self.inflight += 1
        self.admitted += 1
        if self.inflight > self.peak:
            self.peak = self.inflight

    def exit(self) -> None:
        if self.inflight <= 0:
            raise RuntimeError("window exit without a matching enter")
        self.inflight -= 1


class CoDelShedder:
    """CoDel-style controlled-delay shedding over an observed sojourn.

    Call :meth:`should_drop` at each arrival with the current time and
    the request's (estimated or measured) queue delay. Below
    :data:`CODEL_TARGET` the controller resets; above it for a sustained
    :data:`CODEL_INTERVAL` it enters the dropping state and sheds at an
    increasing rate (``CODEL_INTERVAL / sqrt(drop_count)`` between sheds)
    until the delay falls back under target.
    """

    __slots__ = ("first_above", "drop_next", "count", "dropped")

    def __init__(self):
        #: Time at which a sojourn first exceeded target (+interval gives
        #: the earliest permissible drop); None while below target.
        self.first_above: Optional[float] = None
        self.drop_next = 0.0
        self.count = 0
        self.dropped = 0

    def should_drop(self, now: float, sojourn: float) -> bool:
        if sojourn < CODEL_TARGET:
            self.first_above = None
            self.count = 0
            return False
        if self.first_above is None:
            self.first_above = now + CODEL_INTERVAL
            return False
        if now < self.first_above:
            return False
        if now >= self.drop_next:
            self.count += 1
            self.dropped += 1
            self.drop_next = now + CODEL_INTERVAL / sqrt(self.count)
            return True
        return False
