"""Cross-tenant isolation: same raw book ids and tags, disjoint data.

Every test writes writer-stamped records (``{"tenant": ...}`` in the
payload) from two or more tenants into the *same* raw book id and tag,
then asserts that no read — direct LogBook handles, gateway function
invocations, or range scans after fault injection — ever surfaces a
record stamped by another tenant. The log-space prefix is the only
mechanism; there is no per-read filtering to hide a leak.
"""

import pytest

from repro.chaos.faults import FaultInjector, fault
from repro.core.cluster import BokiCluster
from repro.core.index import ALL_TAG, logspace_of, scope_book, scope_tag
from repro.core.types import MAX_SEQNUM
from repro.tenant import UnknownTenantError

pytestmark = pytest.mark.tenant

BOOK = 5
TAG = 7


def _cluster(*tenants, **kwargs):
    kwargs.setdefault("num_function_nodes", 2)
    kwargs.setdefault("num_storage_nodes", 3)
    kwargs.setdefault("num_sequencer_nodes", 3)
    cluster = BokiCluster(**kwargs)
    hub = cluster.enable_tenancy()
    for t in tenants:
        hub.registry.register(t)
    return cluster, hub


# ----------------------------------------------------------------------
# Direct LogBook handles
# ----------------------------------------------------------------------
def test_same_raw_book_and_tag_are_disjoint():
    cluster, _ = _cluster("acme", "bigco")
    cluster.boot()

    def run():
        books = {t: cluster.logbook(BOOK, tenant=t) for t in ("acme", "bigco")}
        for t, book in books.items():
            for n in range(4):
                yield from book.append({"tenant": t, "n": n}, tags=(TAG,))
        out = {}
        for t, book in books.items():
            out[t] = yield from book.read_range(TAG)
        return out

    out = cluster.drive(run())
    for t, records in out.items():
        assert len(records) == 4
        assert [r.data["n"] for r in records] == [0, 1, 2, 3]
        # Writer stamps prove no cross-tenant record leaked in.
        assert {r.data["tenant"] for r in records} == {t}
        # Tags round-trip raw: the scope prefix never reaches the app.
        assert all(r.tags == (TAG,) for r in records)


def test_a_handle_scopes_tags_by_its_book_ids_logspace():
    """Tenant handles, direct or bound to a context, namespace their tags
    into their book id's log space; a default-tenant handle scopes none."""
    cluster, hub = _cluster("acme")
    cluster.boot()
    acme = scope_book(hub.registry.logspace("acme"), BOOK)

    def fn(ctx, arg):
        yield from cluster.logbook_for(ctx).append("ctx", tags=(TAG,))

    def direct(tenant):
        yield from cluster.logbook(BOOK, tenant=tenant).append("direct", tags=(TAG,))

    cluster.register_function("fn", fn)
    for tenant in ("acme", None):
        cluster.drive(cluster.invoke("fn", book_id=BOOK, tenant=tenant))
        cluster.drive(direct(tenant))
    cluster.run(until=cluster.env.now + 0.1)  # every index catches up

    def stored(book_id):
        engine = cluster.any_engine()
        replies, _ = cluster.drive(
            engine.read(book_id, ALL_TAG, "next", 0, MAX_SEQNUM, {}, None))
        return [(r["data"], tuple(r["tags"])) for r in replies]

    assert cluster.logbook(BOOK, tenant="acme").logspace == logspace_of(acme) == 1
    assert stored(acme) == [("ctx", (scope_tag(1, TAG),)),
                            ("direct", (scope_tag(1, TAG),))]
    assert stored(BOOK) == [("ctx", (TAG,)), ("direct", (TAG,))]


def test_default_tenant_and_registered_tenant_are_mutually_invisible():
    cluster, _ = _cluster("acme")
    cluster.boot()

    def run():
        plain = cluster.logbook(BOOK)                  # default tenant
        scoped = cluster.logbook(BOOK, tenant="acme")
        yield from plain.append({"tenant": "default"}, tags=(TAG,))
        yield from scoped.append({"tenant": "acme"}, tags=(TAG,))
        seen_plain = yield from plain.read_range(TAG)
        seen_scoped = yield from scoped.read_range(TAG)
        tail_plain = yield from plain.read_prev()      # ALL_TAG row
        tail_scoped = yield from scoped.read_prev()
        return seen_plain, seen_scoped, tail_plain, tail_scoped

    seen_plain, seen_scoped, tail_plain, tail_scoped = cluster.drive(run())
    assert [r.data["tenant"] for r in seen_plain] == ["default"]
    assert [r.data["tenant"] for r in seen_scoped] == ["acme"]
    # Even the implicit all-records row is private: book ids differ.
    assert tail_plain.data["tenant"] == "default"
    assert tail_scoped.data["tenant"] == "acme"


def test_scoped_book_ids_diverge_in_the_index():
    cluster, hub = _cluster("acme")
    assert hub.registry.scope_book("acme", BOOK) == scope_book(1, BOOK)
    assert hub.registry.scope_book("acme", BOOK) != BOOK
    with pytest.raises(UnknownTenantError):
        cluster.logbook(BOOK, tenant="ghost")


# ----------------------------------------------------------------------
# Through the gateway
# ----------------------------------------------------------------------
def _register_session_fns(cluster):
    def write(ctx, arg):
        book = cluster.logbook_for(ctx)
        seq = yield from book.append(
            {"tenant": ctx.tenant, "n": arg["n"]}, tags=(TAG,))
        return seq

    def scan(ctx, arg):
        book = cluster.logbook_for(ctx)
        records = yield from book.read_range(TAG)
        mine = sum(1 for r in records if r.data.get("tenant") == ctx.tenant)
        return {"total": len(records), "mine": mine,
                "leaks": len(records) - mine}

    cluster.register_function("session-write", write)
    cluster.register_function("session-scan", scan)


def test_isolation_through_gateway_functions():
    cluster, _ = _cluster("acme", "bigco")
    cluster.boot()
    _register_session_fns(cluster)

    def run():
        for t in ("acme", "bigco"):
            for n in range(3):
                yield from cluster.invoke(
                    "session-write", {"n": n}, book_id=BOOK, tenant=t)
        out = {}
        for t in ("acme", "bigco", None):
            out[t] = yield from cluster.invoke(
                "session-scan", {}, book_id=BOOK, tenant=t)
        return out

    out = cluster.drive(run())
    for t in ("acme", "bigco"):
        assert out[t] == {"total": 3, "mine": 3, "leaks": 0}
    # Unlabelled (default-tenant) scans see an empty book entirely.
    assert out[None] == {"total": 0, "mine": 0, "leaks": 0}


# ----------------------------------------------------------------------
# Under chaos
# ----------------------------------------------------------------------
@pytest.mark.chaos
def test_isolation_survives_storage_crash_and_partition():
    """Crash/restart one storage node and partition another from an
    engine mid-run: replication retries, failover reads, and restarted
    replicas must never blur log-space boundaries."""
    cluster, hub = _cluster("acme", "bigco", seed=11)
    cluster.enable_resilience()
    cluster.boot()
    _register_session_fns(cluster)

    snode = cluster.storage_nodes[0]
    other = cluster.storage_nodes[1].name
    plan = [
        fault(0.3, "crash", snode.name),
        fault(0.8, "restart", snode.name),
        fault(0.4, "partition_groups", [[other], ["func-0"]]),
        fault(1.0, "heal_all"),
    ]
    injector = FaultInjector(cluster, plan)
    injector.start()

    env = cluster.env
    rng = cluster.streams.stream("tenant-chaos")
    written = {"acme": 0, "bigco": 0}

    def writer(tenant):
        for n in range(30):
            try:
                yield from cluster.invoke(
                    "session-write", {"n": n}, book_id=BOOK, tenant=tenant)
                written[tenant] += 1
            except Exception:
                pass  # shed/failed mid-fault; the writer moves on
            yield env.timeout(0.03 + rng.random() * 0.02)

    procs = [env.process(writer(t), name=f"writer-{t}")
             for t in ("acme", "bigco")]
    env.run_until(env.all_of(procs), limit=300.0)
    assert env.now > 1.0, "workload finished before the faults healed"
    assert snode.node.crash_count == 1

    def audit():
        out = {}
        for t in ("acme", "bigco"):
            records = yield from cluster.logbook(BOOK, tenant=t).read_range(TAG)
            out[t] = records
        return out

    out = cluster.drive(audit())
    for t, records in out.items():
        stamps = {r.data["tenant"] for r in records}
        assert stamps <= {t}, f"cross-tenant leak into {t}: {stamps}"
        # At-least-once retries may duplicate, never lose: every ack'd
        # write is present.
        assert len(records) >= written[t] > 0
        assert all(r.tags == (TAG,) for r in records)
