"""The flagship multi-tenant functions: sessions through the gateway for
two tenants on the same raw books and tags, asserting zero cross-tenant
leaks.

`repro.workloads.social` models a session-analytics SaaS whose scans
count any cross-tenant record as a leak.
"""

import pytest

from repro.core.cluster import BokiCluster
from repro.workloads.social import (
    EVENTS_PER_TICK,
    SESSION_BOOK_BASE,
    register_functions,
)

pytestmark = pytest.mark.tenant


def test_social_run_smoke_no_leaks():
    cluster = BokiCluster(
        num_function_nodes=2, num_storage_nodes=3, num_sequencer_nodes=3,
        seed=3,
    )
    hub = cluster.enable_tenancy()
    for name in ("app-0", "app-1"):
        hub.registry.register(name)
    register_functions(cluster)
    cluster.boot()

    def flow():
        reports = {}
        for tenant in ("app-0", "app-1"):
            # Both tenants write the same users: same raw book, same tag.
            for user in (7, 8):
                tick = yield from cluster.invoke(
                    "session.ingest", {"user": user},
                    book_id=SESSION_BOOK_BASE, tenant=tenant)
                assert tick["visible"]
            reports[tenant] = yield from cluster.invoke(
                "session.report", {"users": [7, 8]},
                book_id=SESSION_BOOK_BASE, tenant=tenant)
        return reports

    reports = cluster.drive(flow(), limit=60.0)
    # The isolation invariant: each tenant's scans replay exactly its own
    # events, and none stamped by the other.
    for report in reports.values():
        assert report == {"events": 2 * EVENTS_PER_TICK, "leaks": 0, "users": 2}
    # Every ingest fed the per-tenant freshness SLO window.
    snap = hub.fairness_snapshot()
    assert snap["freshness"]["app-0"]["samples"] == 2
    assert snap["freshness"]["app-0"]["p99_s"] is not None
