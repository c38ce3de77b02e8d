"""Tenant registry and log-space scoping units."""

import pytest

from repro.core.index import (
    ALL_TAG,
    logspace_of,
    scope_book,
    scope_tag,
    unscope_tag,
)
from repro.core.metalog import DEFAULT_LOGSPACE, LOGSPACE_SHIFT, MAX_RAW_ID
from repro.core.placement import assign_tenant_engines
from repro.tenant import (
    DEFAULT_TENANT,
    TenantQoS,
    TenantRegistry,
    UnknownTenantError,
)

pytestmark = pytest.mark.tenant


# ----------------------------------------------------------------------
# Scoping arithmetic
# ----------------------------------------------------------------------
def test_default_logspace_is_identity():
    assert scope_book(DEFAULT_LOGSPACE, 42) == 42
    assert scope_tag(DEFAULT_LOGSPACE, 7) == 7
    assert unscope_tag(DEFAULT_LOGSPACE, 7) == 7
    assert logspace_of(42) == DEFAULT_LOGSPACE


def test_scoping_round_trips():
    scoped = scope_book(3, 42)
    assert scoped == (3 << LOGSPACE_SHIFT) | 42
    assert logspace_of(scoped) == 3
    tag = scope_tag(3, 7)
    assert unscope_tag(3, tag) == 7
    assert logspace_of(tag) == 3


def test_all_tag_never_prefixed():
    # Tag 0 is the implicit row: scoped book ids already make it private.
    assert scope_tag(5, ALL_TAG) == ALL_TAG
    assert unscope_tag(5, ALL_TAG) == ALL_TAG


def test_disjoint_rows_across_logspaces():
    assert scope_book(1, 9) != scope_book(2, 9)
    assert scope_tag(1, 9) != scope_tag(2, 9)
    assert scope_book(1, 9) != 9


def test_raw_id_range_enforced():
    with pytest.raises(ValueError):
        scope_book(1, MAX_RAW_ID + 1)
    with pytest.raises(ValueError):
        scope_tag(1, MAX_RAW_ID + 1)
    # Default logspace passes anything through (no tenancy = no limits).
    assert scope_book(DEFAULT_LOGSPACE, MAX_RAW_ID + 1) == MAX_RAW_ID + 1


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_default_tenant_is_implicit_logspace_zero():
    reg = TenantRegistry()
    assert reg.known(DEFAULT_TENANT)
    assert reg.logspace(DEFAULT_TENANT) == DEFAULT_LOGSPACE
    assert reg.scope_book(DEFAULT_TENANT, 5) == 5
    assert logspace_of(reg.scope_book(DEFAULT_TENANT, 5)) == DEFAULT_LOGSPACE


def test_registration_assigns_sequential_logspaces():
    reg = TenantRegistry()
    reg.register("acme")
    reg.register("bigco")
    assert reg.logspace("acme") == 1
    assert reg.logspace("bigco") == 2
    assert reg.tenants() == [DEFAULT_TENANT, "acme", "bigco"]
    assert reg.tenant_of_logspace(2) == "bigco"
    assert reg.tenant_of_book(reg.scope_book("acme", 5)) == "acme"


def test_reregistration_updates_qos_never_logspace():
    reg = TenantRegistry()
    reg.register("acme", weight=1.0)
    before = reg.logspace("acme")
    reg.register("acme", weight=4.0)
    assert reg.logspace("acme") == before
    assert reg.weight("acme") == 4.0


def test_unknown_tenant_raises():
    reg = TenantRegistry()
    with pytest.raises(UnknownTenantError):
        reg.logspace("ghost")
    with pytest.raises(UnknownTenantError):
        reg.qos("ghost")


def test_qos_validation():
    with pytest.raises(ValueError):
        TenantQoS(weight=0)
    with pytest.raises(ValueError):
        TenantQoS(rate=-1)
    with pytest.raises(ValueError):
        TenantQoS(burst=0.5)
    reg = TenantRegistry()
    with pytest.raises(ValueError):
        reg.register(DEFAULT_TENANT, pinned=True)


def test_scoped_book_names_the_logspace_its_tags_scope_into():
    reg = TenantRegistry()
    reg.register("acme")
    logspace = logspace_of(reg.scope_book("acme", 5))
    assert logspace == reg.logspace("acme") == 1
    assert scope_tag(logspace, 7) == (1 << LOGSPACE_SHIFT) | 7
    assert unscope_tag(logspace, scope_tag(logspace, 7)) == 7
    assert scope_tag(logspace, ALL_TAG) == ALL_TAG


# ----------------------------------------------------------------------
# Tenant-aware placement
# ----------------------------------------------------------------------
def test_pinned_tenants_get_dedicated_engines():
    qos = {
        "whale": TenantQoS(weight=2.0, pinned=True),
        "small-1": TenantQoS(),
        "small-2": TenantQoS(),
    }
    engines = [f"func-{i}" for i in range(6)]
    placement = assign_tenant_engines(qos, engines)
    whale = set(placement["whale"])
    assert whale  # the whale got dedicated engines
    # Spread tenants never land on pinned engines.
    for name in ("small-1", "small-2"):
        assert not (set(placement[name]) & whale)
        assert placement[name]


def test_placement_is_deterministic_and_total():
    qos = {f"t{i}": TenantQoS(pinned=(i == 0)) for i in range(4)}
    engines = [f"func-{i}" for i in range(5)]
    a = assign_tenant_engines(qos, engines, term_id=1)
    b = assign_tenant_engines(qos, engines, term_id=1)
    assert a == b
    assert set(a) == set(qos)
    for names in a.values():
        assert names and set(names) <= set(engines)


def test_placement_spread_width():
    qos = {f"t{i}": TenantQoS() for i in range(6)}
    engines = [f"func-{i}" for i in range(8)]
    placement = assign_tenant_engines(qos, engines, spread=2)
    assert all(len(v) == 2 for v in placement.values())
    # Rotation offsets scatter: not everyone on the same two engines.
    assert len({tuple(v) for v in placement.values()}) > 1
