"""Adaptive concurrency limiting (AIMD over observed latency).

The limiter answers one question: *how many requests may be in flight
through the gateway right now?* It adapts the answer from two signals:

- **Observed end-to-end latency** vs a target: an EWMA of accepted
  request latencies. While the smoothed latency sits at or below the
  target the limit grows additively (``+INCREASE/limit`` per completion,
  i.e. roughly +1 per round trip of a full window — TCP-Reno style);
  when it sits above, the limit decays gently (``×LATENCY_BACKOFF``).
- **Explicit overload backpressure** from downstream (an engine or
  storage node shed the request): multiplicative decrease
  (``×OVERLOAD_BACKOFF``), the strong signal that the cluster is beyond
  saturation, not merely slow.

Everything is plain arithmetic on observed completions — no RNG, no
kernel events, no timers — so an enabled-but-idle limiter cannot perturb
a same-seed run (the transparency invariant every optional layer in this
repo keeps; see ``tests/admission/test_transparency.py``).
"""

from __future__ import annotations

from repro.sim.metrics import Ewma

#: Floor and ceiling of the concurrency limit.
MIN_LIMIT = 4.0
MAX_LIMIT = 4096.0
#: Smoothed latency (seconds) at or below which the limit grows.
TARGET_LATENCY = 0.050
#: Smoothing factor of the latency EWMA.
ALPHA = 0.3
#: Additive increase per completion, divided by the current limit.
INCREASE = 1.0
#: Factor applied per completion while the smoothed latency is above target.
LATENCY_BACKOFF = 0.98
#: Factor applied per downstream overload.
OVERLOAD_BACKOFF = 0.7
#: Service-time estimate (seconds) before the first observed completion.
DEFAULT_SERVICE = 0.010


class AdaptiveLimiter:
    """AIMD concurrency limit driven by latency and overload signals."""

    def __init__(self, initial: float = 64.0):
        if not MIN_LIMIT <= initial <= MAX_LIMIT:
            raise ValueError("initial limit must lie within [MIN_LIMIT, MAX_LIMIT]")
        self._limit = float(initial)
        #: Smoothed end-to-end latency of accepted requests.
        self.ewma = Ewma(ALPHA)
        self.decreases = 0

    @property
    def limit(self) -> int:
        """Current integer concurrency limit (floor of the float state)."""
        return int(self._limit)

    def on_success(self, latency: float) -> None:
        """Account one accepted completion with end-to-end ``latency``."""
        if self.ewma.update(latency) <= TARGET_LATENCY:
            self._limit = min(MAX_LIMIT, self._limit + INCREASE / self._limit)
        else:
            self._clamp_down(self._limit * LATENCY_BACKOFF)

    def on_overload(self) -> None:
        """Downstream shed one of our requests: multiplicative decrease."""
        self._clamp_down(self._limit * OVERLOAD_BACKOFF)

    def _clamp_down(self, value: float) -> None:
        value = max(MIN_LIMIT, value)
        if value < self._limit:
            self.decreases += 1
        self._limit = value

    def service_estimate(self) -> float:
        """Best current estimate of one request's service time — the
        EWMA when we have observations, else :data:`DEFAULT_SERVICE`.
        Drives both deadline-aware early rejection and retry-after hints."""
        smoothed = self.ewma.value
        return smoothed if smoothed is not None else DEFAULT_SERVICE

    def snapshot(self) -> dict:
        return {
            "limit": self.limit,
            "ewma_latency": self.ewma.value,
            "decreases": self.decreases,
        }
