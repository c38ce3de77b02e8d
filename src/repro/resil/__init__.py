"""repro.resil — deterministic end-to-end failure recovery.

The unified resilience layer for the simulated Boki stack: retry
policies with exponential backoff + jitter from named deterministic RNG
streams, per-destination circuit breakers, a cluster-wide retry budget,
and retrying call wrappers (failover across candidates, a re-run thunk)
over ``sim.network``. Enable it on a cluster with
``BokiCluster.enable_resilience()``; see ``docs/resilience.md`` for the
policies, the determinism guarantees, and how retries compose with
Boki's exactly-once machinery.
"""

from repro.resil.breaker import CircuitBreaker
from repro.resil.policy import (
    FAILURE,
    OVERLOAD,
    TIMEOUT,
    RetryBudget,
    RetryPolicy,
    classify,
    unwrap_failure,
)
from repro.resil.rpc import INVOKE_POLICY, Resilience

__all__ = [
    "CircuitBreaker",
    "FAILURE",
    "INVOKE_POLICY",
    "OVERLOAD",
    "Resilience",
    "RetryBudget",
    "RetryPolicy",
    "TIMEOUT",
    "classify",
    "unwrap_failure",
]
