"""Deterministic discrete-event simulation substrate.

This package provides the simulation kernel that the Boki reproduction runs
on: a virtual clock with an event heap (:mod:`repro.sim.kernel`),
a counted resource (:mod:`repro.sim.sync`), a latency-modelled
message network (:mod:`repro.sim.network`), failure-injectable nodes
(:mod:`repro.sim.node`), seeded random variates (:mod:`repro.sim.randvar`)
and measurement helpers (:mod:`repro.sim.metrics`).

All simulated components are single-threaded generator processes scheduled
by the kernel, which makes every experiment deterministic and reproducible
given a seed.
"""

from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
    Timer,
)
from repro.sim.metrics import LatencyRecorder, percentile
from repro.sim.network import Network, RpcError, RpcTimeout
from repro.sim.node import Node, NodeDownError
from repro.sim.randvar import RandomStreams, zipf_weights
from repro.sim.sync import Resource

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "LatencyRecorder",
    "Network",
    "Node",
    "NodeDownError",
    "Process",
    "RandomStreams",
    "Resource",
    "RpcError",
    "RpcTimeout",
    "SimulationError",
    "Timeout",
    "Timer",
    "percentile",
    "zipf_weights",
]
