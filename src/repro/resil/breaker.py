"""Per-destination circuit breakers.

A breaker tracks consecutive transport failures toward one destination
node. After :data:`FAILURE_THRESHOLD` consecutive failures it *opens*:
the failover paths skip to the next candidate without generating network
traffic — so a dead or partitioned node stops accumulating doomed
in-flight requests and their timeout latency. After
:data:`RESET_TIMEOUT` of virtual time the breaker goes *half-open* and
admits a single probe; a successful probe closes it, a failed probe
re-opens it for another :data:`RESET_TIMEOUT`.

All transitions are driven by the simulation clock and call outcomes —
no randomness — so breaker behavior is identical across same-seed runs.
"""

from __future__ import annotations

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Consecutive failures that open a breaker.
FAILURE_THRESHOLD = 5
#: Virtual seconds an open breaker waits before admitting a probe.
RESET_TIMEOUT = 0.25


class CircuitBreaker:
    """Failure-counting breaker for one destination."""

    def __init__(self, env, destination: str):
        self.env = env
        self.destination = destination
        self._failures = 0
        self._opened_at = None
        self._probing = False
        #: How many times the breaker tripped open (including re-opens
        #: after a failed half-open probe).
        self.trips = 0

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return CLOSED
        if self.env.now >= self._opened_at + RESET_TIMEOUT:
            return HALF_OPEN
        return OPEN

    def allow(self) -> bool:
        """Whether a call to this destination may proceed now. A True
        answer in the half-open state claims the single probe slot."""
        state = self.state
        if state == CLOSED:
            return True
        if state == OPEN:
            return False
        if self._probing:
            return False
        self._probing = True
        return True

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        self._probing = False
        if self._opened_at is not None:
            # Failed half-open probe: re-open for another reset window.
            self._opened_at = self.env.now
            self.trips += 1
            return
        self._failures += 1
        if self._failures >= FAILURE_THRESHOLD:
            self._opened_at = self.env.now
            self.trips += 1
