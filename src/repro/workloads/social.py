"""Multi-tenant session analytics: the ``repro.tenant`` flagship functions.

Models a social-analytics SaaS hosting many customer apps (tenants) on one
Boki deployment — the setting §3 designs log spaces for. Each tenant's
users generate *sessions*:

- ``session.ingest`` — a session tick appends a burst of activity events
  to the user's session book (tagged by user), then reads its own tail
  back — the append->readable lag is the tenant's *freshness* sample,
  fed to the per-tenant freshness SLO windows.
- ``session.report`` — an analytics query: fans out child invocations
  (``session.scan``, inheriting the tenant label) that each replay a
  user's event log, then aggregates the counts.

Every tenant addresses the *same raw book ids and tags* — log-space
scoping is what keeps them isolated, and the functions assert it: every
event is stamped with its writer's tenant, and any cross-tenant record
surfacing in a scan is counted as a leak (must stay zero).

The traffic that drives these functions (the tenant mix, the arrival
process) belongs to whoever runs them — ``benchmarks/perf``'s gateway
workloads do; the constants below are the shape they share.
"""

from __future__ import annotations

from typing import Generator

#: Raw (pre-scoping) book id base for session books. Every tenant uses
#: the same raw ids — isolation comes from log spaces, not id hygiene.
SESSION_BOOK_BASE = 9000
#: Session books per tenant (users hash onto them).
SESSION_BOOKS = 4
#: Events appended per session tick.
EVENTS_PER_TICK = 2
#: Child scans fanned out per report query.
REPORT_FANOUT = 2
#: Fraction of requests that are analytics reports (rest are ingests).
REPORT_SHARE = 0.2


# ----------------------------------------------------------------------
# The functions (deployed once, shared by every tenant)
# ----------------------------------------------------------------------
def _user_tag(user: int) -> int:
    # Raw tag: stays within the 64-bit raw space; scoping namespaces it.
    return 1 + (user % 1_000_003)


def register_functions(cluster) -> None:
    """Deploy ``session.ingest`` / ``session.report`` / ``session.scan``."""

    def ingest(ctx, arg) -> Generator:
        book = cluster.logbook_for(ctx)
        user = arg["user"]
        tag = _user_tag(user)
        t0 = cluster.env.now
        seqnum = None
        for k in range(arg.get("events", EVENTS_PER_TICK)):
            seqnum = yield from book.append(
                {"user": user, "k": k, "tenant": ctx.tenant or "default",
                 "t": round(t0, 9)},
                tags=[tag],
            )
        # Read our own tail back: append->readable round trip = the
        # tenant's freshness sample (read-your-writes makes it visible).
        record = yield from book.read_prev(tag=tag)
        lag = cluster.env.now - t0
        if cluster.tenancy is not None and ctx.tenant is not None:
            cluster.tenancy.observe_freshness(ctx.tenant, cluster.env.now, lag)
        return {"seqnum": seqnum, "visible": record is not None, "lag": lag}

    def scan(ctx, arg) -> Generator:
        book = cluster.logbook_for(ctx)
        records = yield from book.read_range(tag=_user_tag(arg["user"]))
        me = ctx.tenant or "default"
        leaks = sum(1 for r in records if r.data.get("tenant") != me)
        return {"events": len(records), "leaks": leaks}

    def report(ctx, arg) -> Generator:
        # Fan out per-user scans (children are bound to this book and
        # tenant label, and therefore the log space), then aggregate.
        events = 0
        leaks = 0
        for user in arg["users"][:REPORT_FANOUT]:
            sub = yield from ctx.invoke("session.scan", {"user": user})
            events += sub["events"]
            leaks += sub["leaks"]
        return {"events": events, "leaks": leaks, "users": len(arg["users"])}

    cluster.register_function("session.ingest", ingest)
    cluster.register_function("session.scan", scan)
    cluster.register_function("session.report", report)
