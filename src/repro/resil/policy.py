"""Deterministic retry policies and failure classification.

Every RPC path in the simulated cluster can fail two ways, and they are
not interchangeable:

- :class:`~repro.sim.network.RpcTimeout` — no reply arrived. *Ambiguous*:
  the request may have been dropped on the way in (never executed) or the
  reply may have been lost after the handler ran. Retrying a timed-out
  call is only safe when the operation is idempotent or deduplicated
  downstream (Boki's exactly-once machinery, §5).
- :class:`~repro.sim.network.RpcError` — the remote handler raised.
  *Definite*: the request reached the handler and failed; whatever
  partial effects it had are the handler's responsibility, and the error
  type tells the caller whether another attempt can succeed.

:func:`classify` preserves that distinction through arbitrarily nested
``RpcError`` layers (client -> gateway -> node), and
:class:`RetryPolicy.retry_timeouts` lets each call site opt ambiguous
retries in or out explicitly.

Determinism: backoff jitter is drawn from the named RNG stream
``resil-jitter``, which :class:`~repro.sim.randvar.RandomStreams` creates
on the first actual retry — a fault-free run consumes zero randomness and schedules
zero extra virtual-time events, so enabling the resilience layer cannot
perturb a same-seed fault-free simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple, Type

from repro.admission.errors import is_overload, retry_after_hint
from repro.sim.network import RpcTimeout, unwrap_failure

#: Failure kinds returned by :func:`classify`.
TIMEOUT = "timeout"    # ambiguous: the request may or may not have executed
FAILURE = "failure"    # definite: the remote handler raised
OVERLOAD = "overload"  # definite: shed by admission control, never executed

#: Growth factor of the backoff from one retry to the next.
MULTIPLIER = 2.0
#: Half-width of the uniform jitter factor around each backoff.
JITTER = 0.5


def classify(exc: BaseException) -> str:
    """Classify a transport-level failure as :data:`TIMEOUT`,
    :data:`FAILURE`, or :data:`OVERLOAD` (see module docstring for why
    they differ). Overload sheds are *definite* — admission control
    rejected the request before any work started — so retrying them is
    always safe, but only after the shedder's retry-after hint."""
    if is_overload(exc):
        return OVERLOAD
    if isinstance(unwrap_failure(exc), RpcTimeout):
        return TIMEOUT
    return FAILURE


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with bounded, jittered delays.

    ``max_attempts`` counts every try including the first; the backoff
    before attempt ``k`` (k >= 1) is ``base_delay * MULTIPLIER**(k-1)``
    capped at ``max_delay``, multiplied by a jitter factor uniform in
    ``[1 - JITTER, 1 + JITTER]``. Jitter randomness is drawn only when a
    retry actually happens (see module docstring).
    """

    max_attempts: int = 4
    base_delay: float = 2e-3
    max_delay: float = 0.2
    #: Per-attempt RPC timeout; None means the call site's own default.
    attempt_timeout: float = None
    #: Whether ambiguous failures (timeouts) are retried. Only safe for
    #: idempotent or log-deduplicated operations.
    retry_timeouts: bool = False
    #: Exception types never worth retrying (unwrapped root causes).
    permanent: Tuple[Type[BaseException], ...] = field(default=())

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        """Whether attempt ``attempt`` (0-based) failing with ``exc``
        warrants another try."""
        if attempt + 1 >= self.max_attempts:
            return False
        cause = unwrap_failure(exc)
        if self.permanent and isinstance(cause, self.permanent):
            return False
        if isinstance(cause, RpcTimeout) and not self.retry_timeouts:
            return False
        return True

    def backoff(self, attempt: int, rng) -> float:
        """Delay before retrying after attempt ``attempt`` (0-based)."""
        delay = min(self.max_delay, self.base_delay * MULTIPLIER ** attempt)
        delay *= 1.0 + JITTER * (2.0 * rng.random() - 1.0)
        return delay

    def delay(self, attempt: int, exc: BaseException, rng) -> float:
        """Jittered backoff after attempt ``attempt`` failed with ``exc``,
        floored at the failure's machine-readable retry-after hint
        (admission sheds, fail-fast rejections): resil and admission pace
        retries from the same signal, so a storm of shed clients spreads
        out instead of re-arriving in lockstep."""
        delay = self.backoff(attempt, rng)
        hint = retry_after_hint(exc)
        return delay if hint is None else max(delay, hint)


class RetryBudget:
    """Cluster-wide retry-storm guard (Envoy-style retry budget).

    A deterministic token bucket shared by every resilient call site:
    each *first* attempt deposits ``ratio`` tokens (so the allowed retry
    volume scales with real traffic), each retry withdraws one. When the
    bucket is empty retries are denied and the original error surfaces —
    bounding the amplification a fault can cause to ``ratio`` extra load,
    instead of every caller independently hammering a struggling node.

    Uses no randomness: budget decisions are a pure function of the call
    sequence, keeping same-seed runs identical.
    """

    def __init__(self, ratio: float = 0.2, max_tokens: float = 50.0,
                 initial: float = 20.0):
        self.ratio = ratio
        self.max_tokens = max_tokens
        self.tokens = float(initial)
        self.spent = 0
        self.denied = 0

    def on_attempt(self) -> None:
        """Account one fresh (non-retry) attempt."""
        self.tokens = min(self.max_tokens, self.tokens + self.ratio)

    def try_spend(self) -> bool:
        """Withdraw one retry token; False (and counted) when exhausted."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.spent += 1
            return True
        self.denied += 1
        return False
