"""repro.elastic — load-driven autoscaling and shard rebalancing.

A deterministic control plane layer over the Boki cluster: an
:class:`Autoscaler` kernel process samples ``repro.obs`` load signals
through an EWMA/hysteresis :class:`HysteresisPolicy` and resizes the
engine and storage fleets via serialized controller reconfigurations,
with minimal-movement replica placement (:mod:`repro.elastic.rebalance`)
and fencing of decommissioned nodes. See ``docs/elasticity.md``.
"""

from repro.elastic.autoscaler import Autoscaler
from repro.elastic.policy import HysteresisPolicy, PolicyConfig
from repro.elastic.rebalance import (
    count_moves,
    optimal_moves,
    rebalance_replicas,
    replica_quota,
)
from repro.elastic.signals import SignalSampler

__all__ = [
    "Autoscaler",
    "HysteresisPolicy",
    "PolicyConfig",
    "SignalSampler",
    "count_moves",
    "optimal_moves",
    "rebalance_replicas",
    "replica_quota",
]
