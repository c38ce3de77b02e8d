"""FaaS runtime substrate (Nightcore substitute).

Boki is built on Nightcore, a FaaS runtime optimized for microservices
(§4.2): a gateway receives function requests and dispatches them to engine
processes on function nodes, which run the functions in containers over
low-latency message channels. This package reproduces that architecture on
the simulation substrate:

- :class:`~repro.faas.gateway.Gateway` — receives invocations, schedules
  them onto function nodes (round-robin or locality-aware).
- :class:`~repro.faas.worker.FunctionNode` — runs functions with a bounded
  worker pool, modelling per-container concurrency.
- :class:`~repro.faas.context.FunctionContext` — the per-invocation handle;
  sends a child a copy of its metalog positions and merges the child's
  back on return, which is how LogBook read consistency crosses function
  boundaries (§4.4).
"""

from repro.faas.context import FunctionContext
from repro.faas.gateway import FunctionNotFoundError, Gateway
from repro.faas.scheduling import LocalityScheduler, enable_locality_scheduling
from repro.faas.worker import FunctionNode

__all__ = [
    "FunctionContext",
    "FunctionNode",
    "FunctionNotFoundError",
    "Gateway",
    "LocalityScheduler",
    "enable_locality_scheduling",
]
