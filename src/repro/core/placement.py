"""Placement: building a term's assignment from the available nodes.

Encodes the deployment conventions of the paper's experimental setup (§7):
every function node's engine owns a shard of every physical log; each
shard is backed by ``ndata`` storage nodes; each metalog lives on ``nmeta``
sequencers; a configurable subset of engines maintains each log's index
(4 per physical log in the paper's default setup).

:func:`assign_tenant_engines` adds the multi-tenant dimension
(``repro.tenant``): which engines each tenant's invocations should land
on. Pinned (large) tenants get dedicated engines sized by their weight
share; spread tenants get a rotation-offset subset of the remaining
fleet so no two small tenants pile onto the same engines.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.config import BokiConfig, LogAssignment, TermConfig
from repro.core.hashing import ConsistentHashRing, stable_hash


def build_term(
    config: BokiConfig,
    term_id: int,
    engine_names: Sequence[str],
    storage_names: Sequence[str],
    sequencer_names: Sequence[str],
    num_logs: int,
    index_engines_per_log: Optional[int] = None,
    prev: Optional[TermConfig] = None,
) -> TermConfig:
    """Deterministically place ``num_logs`` physical logs on the nodes.

    With ``prev`` (the outgoing term), storage replica sets and index
    engines are carried over with minimal movement instead of rehashed:
    surviving replicas stay where they are unless their node left the
    fleet or exceeds the balanced quota (see
    :mod:`repro.elastic.rebalance`). Fresh terms (``prev=None``) keep the
    historical hash placement, so failure-driven reconfiguration is
    byte-identical to earlier releases.
    """
    if num_logs <= 0:
        raise ValueError("need at least one physical log")
    if not engine_names:
        raise ValueError("need at least one engine")
    if len(storage_names) < config.ndata:
        raise ValueError(
            f"need >= ndata={config.ndata} storage nodes, have {len(storage_names)}"
        )
    if len(sequencer_names) < config.nmeta:
        raise ValueError(
            f"need >= nmeta={config.nmeta} sequencer nodes, have {len(sequencer_names)}"
        )
    per_log_index = index_engines_per_log if index_engines_per_log is not None else min(
        4, len(engine_names)
    )

    rebalanced: Optional[Dict[object, List[str]]] = None
    if prev is not None:
        # Local import: repro.elastic layers *above* repro.core; only this
        # opt-in path reaches down into the rebalancer.
        from repro.elastic.rebalance import rebalance_replicas

        slot_list = [
            (log_id, shard)
            for log_id in range(num_logs)
            for shard in engine_names
        ]
        old_replicas: Dict[object, List[str]] = {}
        for log_id, asg in prev.logs.items():
            for shard, replica_set in asg.shard_storage.items():
                old_replicas[(log_id, shard)] = list(replica_set)
        rebalanced = rebalance_replicas(
            slot_list, old_replicas, list(storage_names), config.ndata
        )

    logs: Dict[int, LogAssignment] = {}
    for log_id in range(num_logs):
        shards = list(engine_names)
        shard_storage: Dict[str, List[str]] = {}
        for shard in shards:
            if rebalanced is not None:
                shard_storage[shard] = list(rebalanced[(log_id, shard)])
                continue
            start = stable_hash((term_id, log_id, shard), salt="placement") % len(storage_names)
            shard_storage[shard] = [
                storage_names[(start + i) % len(storage_names)] for i in range(config.ndata)
            ]
        seq_start = (log_id + term_id) % len(sequencer_names)
        sequencers = [
            sequencer_names[(seq_start + i) % len(sequencer_names)]
            for i in range(config.nmeta)
        ]
        idx_start = log_id % len(engine_names)
        index_engines = [
            engine_names[(idx_start + i) % len(engine_names)] for i in range(per_log_index)
        ]
        if prev is not None and log_id in prev.logs:
            # Index bootstrap is a full historical replay — keep surviving
            # index engines in place and only top up from the rotation.
            surviving = [
                e for e in prev.logs[log_id].index_engines if e in shards
            ]
            for candidate in index_engines:
                if len(surviving) >= per_log_index:
                    break
                if candidate not in surviving:
                    surviving.append(candidate)
            index_engines = surviving[:per_log_index] or index_engines
        logs[log_id] = LogAssignment(
            log_id=log_id,
            shards=shards,
            shard_storage=shard_storage,
            sequencers=sequencers,
            primary=sequencers[0],
            index_engines=list(dict.fromkeys(index_engines)),
        )
    ring = ConsistentHashRing(list(range(num_logs)))
    return TermConfig(term_id=term_id, logs=logs, ring=ring)


def assign_tenant_engines(
    qos_by_tenant: Dict[str, object],
    engine_names: Sequence[str],
    term_id: int = 0,
    spread: Optional[int] = None,
) -> Dict[str, List[str]]:
    """Deterministically place tenants onto the engine fleet.

    ``qos_by_tenant`` maps tenant name -> QoS (anything with ``pinned``
    and ``weight`` attributes, i.e. :class:`~repro.tenant.TenantQoS`),
    in registration order. Pinned tenants are carved dedicated engines
    off the front of the fleet — each gets a contiguous slice sized by
    its share of the total pinned weight (at least one engine), capped so
    at least one engine always remains shared. Unpinned tenants each get
    ``spread`` engines (default: the whole shared pool) chosen at a
    stable-hash rotation offset into the shared pool, so small tenants
    scatter instead of stacking.

    Returns tenant -> preferred engine names; feed it to
    :class:`~repro.faas.scheduling.TenantScheduler`.
    """
    if not engine_names:
        raise ValueError("need at least one engine")
    engines = list(engine_names)
    pinned = [t for t, q in qos_by_tenant.items() if getattr(q, "pinned", False)]
    placement: Dict[str, List[str]] = {}
    cursor = 0
    if pinned:
        # Budget: leave at least one shared engine for everyone else.
        budget = max(len(pinned), len(engines) - 1)
        total_weight = sum(
            getattr(qos_by_tenant[t], "weight", 1.0) for t in pinned
        )
        for tenant in pinned:
            weight = getattr(qos_by_tenant[tenant], "weight", 1.0)
            want = max(1, int(budget * weight / total_weight))
            remaining_pinned = len(pinned) - len(placement) - 1
            want = min(want, budget - cursor - remaining_pinned)
            want = max(1, want)
            slice_ = [engines[(cursor + i) % len(engines)] for i in range(want)]
            placement[tenant] = slice_
            cursor += want
    shared = engines[cursor:] or engines
    for tenant, qos in qos_by_tenant.items():
        if tenant in placement:
            continue
        width = min(len(shared), spread) if spread else len(shared)
        start = stable_hash((term_id, tenant), salt="tenant-placement") % len(shared)
        placement[tenant] = [shared[(start + i) % len(shared)] for i in range(width)]
    return placement
