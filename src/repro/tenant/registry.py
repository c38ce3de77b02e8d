"""Tenant registry: tenant -> log space, QoS knobs, placement hints.

Boki's platform is multi-tenant by design: each user of the FaaS
platform gets an isolated shared-log namespace carved out of the common
metalog (§3). The registry is the control-plane source of truth for that
mapping. Registering a tenant assigns it the next *log space* — the
integer prefixed into the high bits of every book id and explicit tag
(:mod:`repro.core.index`) — plus its :class:`TenantQoS` contract: a
scheduling weight, an optional token-bucket rate limit, and placement
hints (pinning, population size).

The reserved ``default`` tenant owns log space 0, which maps
*identically* (scoped id == raw id). That identity is the layer-off
transparency guarantee: a cluster that never configures tenancy — or
enables it but registers no tenants — produces byte-identical runs to
the historical single-tenant seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.index import DEFAULT_LOGSPACE, logspace_of, scope_book
from repro.core.metalog import DEFAULT_TENANT


class UnknownTenantError(KeyError):
    """An operation named a tenant that was never registered."""

    def __init__(self, tenant: str):
        super().__init__(f"unknown tenant {tenant!r}: register it first "
                         f"(only {DEFAULT_TENANT!r} is implicit)")
        self.tenant = tenant


@dataclass
class TenantQoS:
    """One tenant's quality-of-service contract.

    ``weight`` is the deficit-round-robin / fair-share weight (relative
    to other tenants); ``rate``/``burst`` configure the gateway token
    bucket (``rate=None`` = unlimited); ``pinned`` asks tenant-aware
    placement for dedicated engines; ``users`` records the simulated
    population size (workload sizing and placement heat, not enforced).
    """

    weight: float = 1.0
    rate: Optional[float] = None
    burst: float = 1.0
    pinned: bool = False
    users: int = 0

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.rate is not None and self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.burst < 1.0:
            raise ValueError(f"burst must be >= 1 token, got {self.burst}")


class TenantRegistry:
    """Assigns log spaces and holds every tenant's QoS contract."""

    def __init__(self):
        self._qos: Dict[str, TenantQoS] = {DEFAULT_TENANT: TenantQoS()}
        self._logspaces: Dict[str, int] = {DEFAULT_TENANT: DEFAULT_LOGSPACE}
        self._by_logspace: Dict[int, str] = {DEFAULT_LOGSPACE: DEFAULT_TENANT}
        self._next_logspace = 1

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, tenant: str, qos: Optional[TenantQoS] = None,
                 **kwargs) -> TenantQoS:
        """Register ``tenant`` (idempotent), assigning the next log space.

        QoS can be given as a :class:`TenantQoS` or as its keyword fields.
        Re-registering updates the QoS but never the log space — data
        written under the old contract stays reachable.
        """
        if qos is not None and kwargs:
            raise ValueError("pass a TenantQoS or keyword fields, not both")
        qos = qos or TenantQoS(**kwargs)
        if tenant == DEFAULT_TENANT:
            if qos.pinned:
                raise ValueError("the default tenant cannot be pinned")
        elif tenant not in self._logspaces:
            self._logspaces[tenant] = self._next_logspace
            self._by_logspace[self._next_logspace] = tenant
            self._next_logspace += 1
        self._qos[tenant] = qos
        return qos

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def known(self, tenant: str) -> bool:
        return tenant in self._logspaces

    def require(self, tenant: str) -> None:
        if tenant not in self._logspaces:
            raise UnknownTenantError(tenant)

    def tenants(self) -> List[str]:
        """Every registered tenant, default first, then registration
        order (== log-space order: deterministic)."""
        return sorted(self._logspaces, key=self._logspaces.__getitem__)

    def qos(self, tenant: str) -> TenantQoS:
        self.require(tenant)
        return self._qos[tenant]

    def weight(self, tenant: str) -> float:
        return self.qos(tenant).weight

    def logspace(self, tenant: str) -> int:
        self.require(tenant)
        return self._logspaces[tenant]

    def tenant_of_logspace(self, logspace: int) -> Optional[str]:
        """Reverse lookup (scheduling derives the tenant from a scoped
        book id); None for an unassigned log space."""
        return self._by_logspace.get(logspace)

    def tenant_of_book(self, scoped_book_id: int) -> Optional[str]:
        return self.tenant_of_logspace(logspace_of(scoped_book_id))

    # ------------------------------------------------------------------
    # Scoping
    # ------------------------------------------------------------------
    def scope_book(self, tenant: str, book_id: Optional[int]) -> Optional[int]:
        """Namespace a raw book id into the tenant's log space (None
        passes through: the invocation uses no shared log)."""
        if book_id is None:
            return None
        return scope_book(self.logspace(tenant), book_id)
