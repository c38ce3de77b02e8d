"""Locality-aware and tenant-aware function scheduling.

§4.4: "cloud providers can build simple caches which increase data locality
when scheduling functions on nodes where their data is likely to be
cached" — and §7.5's Table 6 quantifies the cost of ignoring it. This
module implements that scheduler: an invocation bound to a LogBook is
placed on a function node whose engine maintains the index for the book's
physical log (and, secondarily, balances load within that set).

Multi-tenancy (``repro.tenant``) adds :class:`TenantScheduler` — node
picking that honors tenant-aware placement
(:func:`repro.core.placement.assign_tenant_engines`): a pinned tenant's
invocations land on its dedicated engines, spread tenants on their
preferred subset, and the tenant is derived from the *log space* of the
invocation's (already scoped) book id, so the scheduler needs no side
channel.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.faas.worker import FunctionNode


class LocalityScheduler:
    """Schedules invocations onto index-holding nodes for their LogBook,
    among the nodes :meth:`Gateway.live_nodes` makes eligible."""

    def __init__(self, cluster):
        self.cluster = cluster
        self._rr = itertools.count()
        self.local_placements = 0
        self.remote_placements = 0

    def __call__(self, fn_name: str, book_id: Optional[int]) -> FunctionNode:
        nodes = self.cluster.gateway.live_nodes()
        term = self.cluster.controller.current_term
        if book_id is None or term is None:
            self.remote_placements += 1
            return nodes[next(self._rr) % len(nodes)]
        log_id = term.log_for_book(book_id)
        index_names = set(term.assignment(log_id).index_engines)
        preferred = [f for f in nodes if f.name in index_names]
        if not preferred:
            self.remote_placements += 1
            return nodes[next(self._rr) % len(nodes)]
        # Within the preferred set, pick the least-loaded node (shortest
        # worker queue), breaking ties round-robin.
        self.local_placements += 1
        start = next(self._rr)
        best = min(
            range(len(preferred)),
            key=lambda i: (
                preferred[(start + i) % len(preferred)].queue_depth,
                i,
            ),
        )
        return preferred[(start + best) % len(preferred)]

    @property
    def locality_rate(self) -> float:
        total = self.local_placements + self.remote_placements
        return self.local_placements / total if total else 0.0


def enable_locality_scheduling(cluster) -> LocalityScheduler:
    """Install the locality scheduler on a cluster's gateway."""
    scheduler = LocalityScheduler(cluster)
    cluster.gateway.scheduler = scheduler
    return scheduler


def enable_tenant_scheduling(cluster, spread: Optional[int] = None
                             ) -> "TenantScheduler":
    """Compute tenant-aware placement from the registered tenants' QoS
    (:func:`repro.core.placement.assign_tenant_engines`) and install a
    :class:`TenantScheduler` on the cluster's gateway. Call after
    ``boot()`` (placement keys off the current term) and after the
    tenants are registered."""
    if cluster.tenancy is None:
        raise RuntimeError("call BokiCluster.enable_tenancy() first")
    from repro.core.placement import assign_tenant_engines

    registry = cluster.tenancy.registry
    qos = {t: registry.qos(t) for t in registry.tenants()}
    engines = [f.name for f in cluster.function_nodes]
    term = cluster.controller.current_term
    placement = assign_tenant_engines(
        qos, engines, term_id=term.term_id if term is not None else 0,
        spread=spread,
    )
    scheduler = TenantScheduler(cluster, registry, placement)
    cluster.gateway.scheduler = scheduler
    return scheduler


class TenantScheduler:
    """Tenant-aware node picking over a tenant -> engine-set placement.

    The tenant is recovered from the log space of the invocation's
    (already scoped) book id — no scheduler-protocol change needed. The
    pick is least-loaded within the tenant's placed engine set
    (intersected with the autoscaler's active fleet), falling back to
    the whole live fleet when the placement names no live node or the
    invocation carries no book.
    """

    def __init__(self, cluster, registry, placement: Dict[str, List[str]]):
        self.cluster = cluster
        self.registry = registry
        #: tenant -> preferred engine names, from
        #: :func:`repro.core.placement.assign_tenant_engines`.
        self.placement = placement
        self._rr = itertools.count()
        self.placed = 0
        self.fallbacks = 0

    def __call__(self, fn_name: str, book_id: Optional[int]) -> FunctionNode:
        nodes = self.cluster.gateway.live_nodes()
        tenant = (self.registry.tenant_of_book(book_id)
                  if book_id is not None else None)
        preferred = nodes
        if tenant is not None:
            placed = self.placement.get(tenant)
            if placed:
                subset = [f for f in nodes if f.name in placed]
                if subset:
                    preferred = subset
        if preferred is nodes:
            self.fallbacks += 1
        else:
            self.placed += 1
        start = next(self._rr)
        best = min(
            range(len(preferred)),
            key=lambda i: (preferred[(start + i) % len(preferred)].queue_depth, i),
        )
        return preferred[(start + best) % len(preferred)]
