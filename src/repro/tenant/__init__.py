"""repro.tenant — first-class multi-tenancy for the Boki reproduction.

Boki's platform serves many tenants from one shared metalog (§3): each
tenant gets an isolated log namespace, a QoS contract, and placement.
This package models that as three composable pieces:

- :mod:`repro.tenant.registry` — tenant -> *log space* assignment (the
  high-bits prefix that namespaces book ids and tags in the index) plus
  the :class:`~repro.tenant.registry.TenantQoS` contract.
- :mod:`repro.tenant.qos` — the deterministic per-tenant token bucket
  and the typed :class:`~repro.tenant.qos.TenantThrottled` shed.
- :mod:`repro.tenant.hub` — the :class:`~repro.tenant.hub.TenancyHub`
  runtime the gateway consults on every labelled arrival: rate limits,
  weighted-fair admission composed with ``repro.admission``, the
  optional DRR dispatch gate, and per-tenant metrics/fairness snapshots.

Enable with ``cluster.enable_tenancy()``; label work with
``cluster.invoke(..., tenant="acme")``. Unconfigured clusters are
byte-identical to historical single-tenant runs.
"""

from repro.tenant.hub import TenancyHub
from repro.tenant.qos import TenantThrottled, TokenBucket
from repro.tenant.registry import (
    DEFAULT_TENANT,
    TenantQoS,
    TenantRegistry,
    UnknownTenantError,
)

__all__ = [
    "DEFAULT_TENANT",
    "TenancyHub",
    "TenantQoS",
    "TenantRegistry",
    "TenantThrottled",
    "TokenBucket",
    "UnknownTenantError",
]
