"""QoS fairness: token buckets and weighted shedding."""

import pytest

from repro.admission.errors import BATCH, INTERACTIVE, Overloaded
from repro.core.cluster import BokiCluster
from repro.tenant import TenantThrottled, TokenBucket

pytestmark = pytest.mark.tenant


# ----------------------------------------------------------------------
# Token bucket
# ----------------------------------------------------------------------
def test_token_bucket_rate_and_burst():
    bucket = TokenBucket(rate=10.0, burst=3.0, t0=0.0)
    assert bucket.try_take(0.0) == 0.0
    assert bucket.try_take(0.0) == 0.0
    assert bucket.try_take(0.0) == 0.0          # burst exhausted
    retry = bucket.try_take(0.0)
    assert retry == pytest.approx(0.1)          # 1 token at 10/s
    assert bucket.throttled == 1
    assert bucket.try_take(0.1) == 0.0          # refilled exactly one
    assert bucket.try_take(0.1) > 0.0


def test_token_bucket_never_exceeds_burst():
    bucket = TokenBucket(rate=100.0, burst=2.0, t0=0.0)
    bucket.try_take(1000.0)                     # long idle: capped at burst
    assert bucket.tokens == pytest.approx(1.0)  # burst 2 minus 1 taken
    assert bucket.try_take(1000.0) == 0.0
    assert bucket.try_take(1000.0) > 0.0


def test_tenant_throttled_is_an_overload():
    exc = TenantThrottled("acme", 0.05, priority=BATCH)
    assert isinstance(exc, Overloaded)
    assert exc.is_overload
    assert exc.tenant == "acme"
    assert exc.retry_after == pytest.approx(0.05)
    assert exc.resource == "tenant.acme"


# ----------------------------------------------------------------------
# Weighted-fair admission composition
# ----------------------------------------------------------------------
def _tenancy_cluster(**qos_by_tenant):
    cluster = BokiCluster(num_function_nodes=2, num_storage_nodes=3,
                          num_sequencer_nodes=3)
    hub = cluster.enable_tenancy()
    for tenant, qos in qos_by_tenant.items():
        hub.registry.register(tenant, **qos)
    return cluster, hub


def test_rate_limited_tenant_sheds_at_the_gateway():
    cluster, hub = _tenancy_cluster(capped={"rate": 5.0, "burst": 2.0})
    cluster.boot()

    def fn(ctx, arg):
        yield cluster.env.timeout(1e-4)
        return "ok"

    cluster.register_function("f", fn)

    def burst():
        ok = shed = 0
        for _ in range(6):
            try:
                yield from cluster.invoke("f", tenant="capped", policy=None)
                ok += 1
            except TenantThrottled:
                shed += 1
        return ok, shed

    ok, shed = cluster.drive(burst())
    # burst=2 tokens up front; trickle refill admits at most one more.
    assert ok <= 3
    assert shed >= 3
    snap = hub.fairness_snapshot()["tenants"]["capped"]
    assert snap["throttled"] == shed
    assert snap["shed_share"] == 1.0


def test_over_share_tenant_sheds_first_under_share_never_starved():
    """At the concurrency limit, the aggressor (over its weighted share)
    is shed; the victim (under its share) is admitted."""
    from repro.admission import AdaptiveLimiter

    cluster, hub = _tenancy_cluster(
        victim={"weight": 1.0}, aggressor={"weight": 1.0})
    ctl = cluster.enable_admission(
        limiter=AdaptiveLimiter(initial=10.0))
    cluster.boot()
    # Both active: equal weights split the limit 5/5. The aggressor is
    # far over its share; the victim is under.
    hub.state("aggressor").inflight = 9
    hub.state("victim").inflight = 1
    with pytest.raises(Overloaded):
        hub.admission_check(ctl, inflight=10, tenant="aggressor",
                            priority=INTERACTIVE)
    # Same global inflight: the under-share victim still gets in.
    hub.admission_check(ctl, inflight=10, tenant="victim",
                        priority=INTERACTIVE)
    snap = hub.fairness_snapshot()
    assert snap["tenants"]["aggressor"]["shed"] == 1
    assert snap["tenants"]["victim"]["shed"] == 0


def test_fair_share_respects_weights():
    from repro.admission import AdaptiveLimiter

    cluster, hub = _tenancy_cluster(
        gold={"weight": 3.0}, bronze={"weight": 1.0})
    ctl = cluster.enable_admission(
        limiter=AdaptiveLimiter(initial=8.0))
    cluster.boot()
    hub.state("gold").inflight = 5      # share = 8*3/4 = 6 -> under
    hub.state("bronze").inflight = 3    # share = 8*1/4 = 2 -> over
    hub.admission_check(ctl, inflight=8, tenant="gold")
    with pytest.raises(Overloaded):
        hub.admission_check(ctl, inflight=8, tenant="bronze")


def test_deadline_shed_applies_to_everyone():
    cluster, hub = _tenancy_cluster(vip={"weight": 100.0})
    ctl = cluster.enable_admission()
    cluster.boot()
    with pytest.raises(Overloaded):
        hub.admission_check(ctl, inflight=0, tenant="vip",
                            deadline=cluster.env.now)  # already hopeless
