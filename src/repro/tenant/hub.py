"""The tenancy runtime hub: QoS enforcement and per-tenant accounting.

One hub per cluster (``BokiCluster.enable_tenancy``). It wraps the
gateway's invoke handler and dispatch (:meth:`TenancyHub.attach`,
through :mod:`repro.sim.seam`) and acts on every labelled arrival:

1. **Rate limit** — the tenant's deterministic token bucket
   (:class:`~repro.tenant.qos.TokenBucket`) sheds the excess of an
   aggressor tenant *before* any shared resource is touched, as
   :class:`~repro.tenant.qos.TenantThrottled` with a retry-after hint.
2. **Weighted admission** — under overload, the gateway concurrency
   limit is divided into weighted fair shares: a tenant above its share
   faces the full admission check (and sheds first), a tenant below it
   is admitted even at the global limit (bounded overshoot, never
   starved). Composes with ``repro.admission`` without changing it.

The hub also keeps the per-tenant observability state: windowed arrival
and shed rates exported as ``tenant.<id>.rps`` / ``tenant.<id>.shed_rate``
metric gauges, per-tenant freshness windows for SLO checks, and demand
signals for ``repro.elastic``.

Determinism and transparency: every decision is arithmetic over observed
state. With no tenants registered (or only the default tenant active) no
limit can trip and no event is scheduled, so same-seed runs are
byte-identical with the layer on or off — the PR 6–9 bar.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Generator, Optional

from repro.admission.errors import INTERACTIVE, Overloaded
from repro.sim.metrics import SampleWindow
from repro.sim.seam import Signal, wrap
from repro.tenant.qos import TenantThrottled, TokenBucket
from repro.tenant.registry import DEFAULT_TENANT, TenantRegistry

#: Width of the sliding window behind the rps / shed-rate gauges.
RATE_WINDOW = 1.0


class _TenantState:
    """Mutable runtime counters for one tenant."""

    __slots__ = ("bucket", "inflight", "inflight_peak", "admitted", "shed",
                 "throttled", "arrivals", "sheds")

    def __init__(self, bucket: Optional[TokenBucket]):
        self.bucket = bucket
        self.inflight = 0
        self.inflight_peak = 0
        self.admitted = 0
        self.shed = 0          # every rejection: throttle + admission
        self.throttled = 0     # rate-limit rejections only
        self.arrivals: deque = deque()
        self.sheds: deque = deque()

    def rate(self, times: deque, now: float) -> float:
        while times and times[0] < now - RATE_WINDOW:
            times.popleft()
        return len(times) / RATE_WINDOW


class TenancyHub:
    """Runtime QoS enforcement + per-tenant accounting for one cluster."""

    def __init__(self, env):
        self.env = env
        #: Tenants, their log spaces and QoS contracts: register here.
        self.registry = TenantRegistry()
        self.cluster = None  # set by attach(), which enable_tenancy calls at once
        self._states: Dict[str, _TenantState] = {}
        #: Per-tenant freshness lag windows (append -> readable seconds),
        #: fed by workloads; summarized for SLO checks and verdicts.
        self.freshness: Dict[str, object] = {}
        #: Every rate-limit shed: (t, admitted, priority, reason) — the
        #: monitor hub's shed-rate feed, as for admission decisions.
        self.admission_decided = Signal()

    # ------------------------------------------------------------------
    # Attachment (repro.sim.seam)
    # ------------------------------------------------------------------
    def attach(self, cluster) -> None:
        self.cluster = cluster
        self.attach_gateway(cluster.gateway)

    def attach_gateway(self, gateway) -> None:
        """A labelled arrival first passes its tenant's token bucket (the
        admission layer, wrapped inside this one, then applies the
        weighted-fair check); once admitted it is accounted to the tenant
        for as long as it is dispatched. Unlabelled arrivals pass straight
        through."""
        def rate_limited(inner):
            def h_invoke(payload: dict) -> Generator:
                tenant = payload.get("tenant")
                if tenant is not None:
                    self.on_arrival(tenant, payload.get("priority", INTERACTIVE))
                return (yield from inner(payload))
            return h_invoke

        def accounted(inner):
            def dispatch(payload: dict) -> Generator:
                tenant = payload.get("tenant")
                if tenant is None:
                    return (yield from inner(payload))
                self.on_admit(tenant)
                try:
                    return (yield from inner(payload))
                finally:
                    self.on_done(tenant)
            return dispatch

        wrap(gateway, "_h_invoke", rate_limited, "tenancy")
        wrap(gateway, "_dispatch", accounted, "tenancy")

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    def state(self, tenant: str) -> _TenantState:
        st = self._states.get(tenant)
        if st is None:
            qos = self.registry.qos(tenant)
            bucket = None
            if qos.rate is not None:
                bucket = TokenBucket(qos.rate, qos.burst, t0=self.env.now)
            st = self._states[tenant] = _TenantState(bucket)
        return st

    def resolve(self, tenant: Optional[str]) -> str:
        """The tenant label work should carry: unlabelled work belongs to
        the reserved default tenant; a label must be registered."""
        tenant = tenant or DEFAULT_TENANT
        self.registry.require(tenant)
        return tenant

    # ------------------------------------------------------------------
    # Gateway hooks (arrival -> admit -> done)
    # ------------------------------------------------------------------
    def on_arrival(self, tenant: str, priority: str = INTERACTIVE) -> None:
        """Account one labelled arrival and enforce the tenant's rate
        limit; raises :class:`TenantThrottled` on shed."""
        now = self.env.now
        st = self.state(tenant)
        st.arrivals.append(now)
        self._record_rate(tenant, st, now)
        if st.bucket is not None:
            retry_after = st.bucket.try_take(now)
            if retry_after > 0.0:
                self._count_shed(tenant, st, now, priority, "rate-limit",
                                 throttle=True)
                raise TenantThrottled(tenant, retry_after, priority=priority)

    def admission_check(self, controller, inflight: int, tenant: str,
                        priority: str = INTERACTIVE,
                        deadline: Optional[float] = None) -> None:
        """The weighted-fair composition with ``repro.admission``.

        A tenant at or above its weighted share of the concurrency limit
        faces the full admission check (sheds first under overload); a
        tenant below its share bypasses the concurrency check (never
        starved — overshoot is bounded by one request per under-share
        tenant). Deadline-based rejection applies to everyone.
        """
        limit = max(1, int(controller.limiter.limit))
        share = self._fair_share(tenant, limit)
        st = self.state(tenant)
        over_share = st.inflight >= share
        effective = inflight if over_share else 0
        try:
            controller.check(effective, priority=priority, deadline=deadline)
        except Overloaded as exc:
            now = self.env.now
            self._count_shed(tenant, st, now, priority, exc.reason)
            exc.tenant = tenant
            raise

    def on_admit(self, tenant: str) -> None:
        st = self.state(tenant)
        st.admitted += 1
        st.inflight += 1
        if st.inflight > st.inflight_peak:
            st.inflight_peak = st.inflight

    def on_done(self, tenant: str) -> None:
        self.state(tenant).inflight -= 1

    # ------------------------------------------------------------------
    # Fair shares
    # ------------------------------------------------------------------
    def _fair_share(self, tenant: str, limit: int) -> int:
        """``tenant``'s weighted share of ``limit`` over the currently
        active tenants (inflight > 0, plus the arriving tenant)."""
        weights = {tenant: self.registry.weight(tenant)}
        for name, st in self._states.items():
            if st.inflight > 0 and name not in weights:
                weights[name] = self.registry.weight(name)
        total = sum(weights.values())
        return max(1, int(limit * weights[tenant] / total))

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _metrics(self):
        obs = self.cluster.obs
        return obs.metrics if obs is not None else None

    def _record_rate(self, tenant: str, st: _TenantState, now: float) -> None:
        metrics = self._metrics()
        if metrics is not None:
            metrics.gauge(f"tenant.{tenant}.rps").record(
                now, st.rate(st.arrivals, now)
            )

    def _count_shed(self, tenant: str, st: _TenantState, now: float,
                    priority: str, reason: str, throttle: bool = False) -> None:
        st.shed += 1
        st.sheds.append(now)
        if throttle:
            st.throttled += 1
            self.admission_decided(now, False, priority, f"tenant.{tenant}:{reason}")
        metrics = self._metrics()
        if metrics is not None:
            metrics.gauge(f"tenant.{tenant}.shed_rate").record(
                now, st.rate(st.sheds, now)
            )

    def observe_freshness(self, tenant: str, t: float, lag: float) -> None:
        """Record one append->readable freshness sample for ``tenant``
        (fed by workloads that measure their own read-your-append lag)."""
        window = self.freshness.get(tenant)
        if window is None:
            window = self.freshness[tenant] = SampleWindow()
        window.record(t, lag)

    def freshness_summary(self) -> Dict[str, dict]:
        out: Dict[str, dict] = {}
        for tenant in sorted(self.freshness):
            window = self.freshness[tenant]
            stats = window.stats()
            out[tenant] = {
                "samples": stats["count"],
                "mean_s": round(stats["mean"], 9) if stats["count"] else None,
                "p99_s": (round(window.quantile(0.99), 9)
                          if stats["count"] else None),
            }
        return out

    # ------------------------------------------------------------------
    # Signals + verdict snapshot
    # ------------------------------------------------------------------
    def demand(self) -> Dict[str, float]:
        """Per-tenant arrival rates over the last window — the demand
        signal ``repro.elastic`` policies can scale on."""
        now = self.env.now
        return {
            tenant: round(st.rate(st.arrivals, now), 6)
            for tenant, st in sorted(self._states.items())
        }

    def total_shed(self) -> int:
        return sum(st.shed for st in self._states.values())

    def fairness_snapshot(self) -> dict:
        """Deterministic per-tenant fairness block for verdict artifacts:
        who was admitted, who was shed, and what fraction of all sheds
        each tenant absorbed."""
        total_shed = self.total_shed()
        tenants = {}
        for tenant in sorted(self._states):
            st = self._states[tenant]
            tenants[tenant] = {
                "weight": self.registry.weight(tenant),
                "admitted": st.admitted,
                "shed": st.shed,
                "throttled": st.throttled,
                "inflight_peak": st.inflight_peak,
                "shed_share": (round(st.shed / total_shed, 6)
                               if total_shed else 0.0),
                "bucket": st.bucket.snapshot() if st.bucket else None,
            }
        doc = {"tenants": tenants, "total_shed": total_shed}
        if self.freshness:
            doc["freshness"] = self.freshness_summary()
        return doc
