"""SLO burn-rate alerting and the flight recorder.

Sits on top of the online monitors (:mod:`repro.obs.monitor`): SLOs are
declared as objectives over the hub's incremental windows (availability,
p99 latency, read freshness), burn-rate rules evaluate them over a
*fast* and a *slow* window (the SRE multi-window pattern: the fast
window makes alerts responsive, the slow window keeps them from flapping
on a single bad sample), and every ``ok -> firing`` transition emits a
typed :class:`Alert` record.

The :class:`FlightRecorder` is the black box: a bounded ring buffer of
recent metric samples, fault injections, monitor violations, and alert
transitions. When an alert fires, the recorder snapshots the ring into a
deterministic ``repro.monitor/1`` JSON document — the last N events
before the problem, kept instead of lost to the scrollback. The verdict
carries each snapshot's :func:`flight_digest`; the body is rewritten on
demand (``python -m repro.chaos run NAME --flight-dir DIR``).

Monitoring has one configuration: the rules, their windows, the
evaluation interval and the ring size are the module constants below.

Like the monitors, everything here observes and never perturbs: the
evaluation loop is a kernel process that reads windows and writes only
its own state, so same-seed runs stay byte-identical with alerting on
or off.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from repro.obs.artifact import canonical_json

MONITOR_SCHEMA = "repro.monitor/1"

#: Flight-recorder ring capacity (events); ~enough to cover the window
#: between cause and detection in every committed scenario.
RING = 512

#: Virtual seconds between two evaluations of the burn-rate rules.
INTERVAL = 0.05


# ----------------------------------------------------------------------
# SLOs and burn-rate rules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SLO:
    """A service-level objective over one of the hub's windows.

    ``kind`` selects the signal:

    - ``availability`` — ``objective`` is the success-ratio target
      (e.g. 0.99); burn rate = observed error rate / error budget.
    - ``latency_p99_ms`` — ``objective`` is the p99 target in ms; burn
      rate = observed p99 / target.
    - ``freshness_p99_s`` — ``objective`` is the append->readable p99
      target in seconds; burn rate = observed p99 / target.
    - ``shed_rate`` — ``objective`` is the tolerable fraction of
      arrivals the admission layer may shed (repro.admission); burn
      rate = observed shed rate / objective.
    """

    name: str
    kind: str
    objective: float

    KINDS = ("availability", "latency_p99_ms", "freshness_p99_s", "shed_rate")
    _RATIO_KINDS = ("availability", "shed_rate")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if self.kind in self._RATIO_KINDS and not 0.0 < self.objective < 1.0:
            raise ValueError(f"{self.kind} objective must be in (0, 1)")
        if self.kind not in self._RATIO_KINDS and self.objective <= 0:
            raise ValueError(f"{self.kind} objective must be positive")


@dataclass(frozen=True)
class BurnRateRule:
    """Multi-window burn-rate rule: fire when *both* the
    :data:`FAST_WINDOW` and the :data:`SLOW_WINDOW` burn at ``threshold``
    times the sustainable rate."""

    slo: SLO
    threshold: float

    @property
    def name(self) -> str:
        return f"{self.slo.name}-burn"

    def _burn(self, hub, window: float, now: float) -> Optional[float]:
        kind = self.slo.kind
        if kind == "availability":
            count, ok = hub.availability.counts(window=window, end=now)
            if count < MIN_EVENTS:
                return None
            budget = 1.0 - self.slo.objective
            return ((count - ok) / count) / budget
        if kind == "shed_rate":
            count, ok = hub.shed.counts(window=window, end=now)
            if count < MIN_EVENTS:
                return None
            return ((count - ok) / count) / self.slo.objective
        if kind == "latency_p99_ms":
            source = hub.latency_ms
        else:
            source = hub.freshness.overall
        lo, hi = source._bounds(window, None, now)
        if hi - lo < MIN_EVENTS:
            return None
        p99 = source.quantile(0.99, start=None, window=window, end=now)
        return None if p99 is None else p99 / self.slo.objective

    def evaluate(self, hub, now: float) -> Optional[Dict[str, float]]:
        """Burn rates for both windows, or None when either window has
        too little data to judge."""
        fast = self._burn(hub, FAST_WINDOW, now)
        slow = self._burn(hub, SLOW_WINDOW, now)
        if fast is None or slow is None:
            return None
        return {"fast": fast, "slow": slow}


@dataclass
class Alert:
    """A typed alert record: one per ``ok -> firing`` transition."""

    t: float
    rule: str
    slo: str
    kind: str
    severity: str
    threshold: float
    burn_fast: float
    burn_slow: float
    message: str

    def to_dict(self) -> dict:
        return {
            "t": round(self.t, 9),
            "rule": self.rule,
            "slo": self.slo,
            "kind": self.kind,
            "severity": self.severity,
            "threshold": self.threshold,
            "burn_fast": round(self.burn_fast, 6),
            "burn_slow": round(self.burn_slow, 6),
            "message": self.message,
        }


#: Burn-rate windows, in virtual seconds (chaos scenarios live on that
#: timescale): the fast one makes alerts responsive, the slow one keeps
#: them from flapping.
FAST_WINDOW = 2.0
SLOW_WINDOW = 10.0

#: Samples a window needs before it is judged; a thinner one burns None.
MIN_EVENTS = 5

#: Every rule pages.
SEVERITY = "page"

#: The one rule set: one paging rule per SLO. The shed-rate rule is silent
#: unless admission control is enabled and shedding (the :data:`MIN_EVENTS`
#: guard never sees admission decisions otherwise).
RULES = (
    BurnRateRule(SLO("availability", "availability", 0.9), threshold=2.0),
    BurnRateRule(SLO("latency-p99", "latency_p99_ms", 250.0), threshold=1.0),
    BurnRateRule(SLO("freshness-p99", "freshness_p99_s", 0.25), threshold=1.0),
    BurnRateRule(SLO("shed-rate", "shed_rate", 0.10), threshold=1.0),
)


class AlertManager:
    """Evaluates :data:`RULES` every :data:`INTERVAL` virtual seconds and
    tracks per-rule firing state. Alerts are emitted on the ok->firing
    edge only (no re-page while firing); every state change lands in
    ``transitions`` for the Chrome-trace export."""

    def __init__(self, hub):
        self.hub = hub
        self.alerts: List[Alert] = []
        self.transitions: List[dict] = []
        self._firing: Dict[str, bool] = {r.name: False for r in RULES}
        self.evaluations = 0

    def evaluate(self, now: float) -> List[Alert]:
        """One evaluation pass; returns alerts newly fired at ``now``."""
        self.evaluations += 1
        fired: List[Alert] = []
        for rule in RULES:
            burn = rule.evaluate(self.hub, now)
            firing = (
                burn is not None
                and burn["fast"] >= rule.threshold
                and burn["slow"] >= rule.threshold
            )
            was_firing = self._firing[rule.name]
            if firing and not was_firing:
                alert = Alert(
                    t=now,
                    rule=rule.name,
                    slo=rule.slo.name,
                    kind=rule.slo.kind,
                    severity=SEVERITY,
                    threshold=rule.threshold,
                    burn_fast=burn["fast"],
                    burn_slow=burn["slow"],
                    message=(
                        f"{rule.slo.name} burning at "
                        f"{min(burn['fast'], burn['slow']):.2f}x budget "
                        f"(threshold {rule.threshold}x) in both windows"
                    ),
                )
                self.alerts.append(alert)
                fired.append(alert)
                self._transition(now, rule.name, "firing")
                self.hub.recorder.on_alert(alert)
            elif was_firing and not firing:
                self._transition(now, rule.name, "ok")
            self._firing[rule.name] = firing
        return fired

    def _transition(self, now: float, rule: str, state: str) -> None:
        self.transitions.append({"t": round(now, 9), "rule": rule, "state": state})

    def run(self, env) -> Generator:
        """The kernel process: evaluate every :data:`INTERVAL` virtual
        seconds. Reads windows, writes only alert state — no messages,
        no RNG, no shared simulation state."""
        while True:
            yield env.timeout(INTERVAL)
            self.evaluate(env.now)


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class FlightRecorder:
    """Bounded ring buffer of recent events, snapshotted on alert.

    Event kinds in the ring: ``metric`` (per-operation samples the hub
    forwards), ``fault`` (injector timeline entries), ``violation``
    (online monitor findings), ``alert`` (manager transitions). The ring
    holds the last :data:`RING` events; a snapshot freezes them together
    with the triggering alert and the ``hub``'s monitors' current verdicts
    into a ``repro.monitor/1`` document."""

    def __init__(self, hub, context: Optional[dict] = None):
        self.hub = hub
        self.ring: deque = deque(maxlen=RING)
        self.context = dict(context or {})
        self.snapshots: List[dict] = []
        self.dropped = 0

    def _push(self, event: dict) -> None:
        if len(self.ring) == RING:
            self.dropped += 1
        self.ring.append(event)

    def on_metric(self, t: float, name: str, fields: dict) -> None:
        self._push({"t": round(t, 9), "type": "metric", "name": name, **fields})

    def on_fault(self, entry: dict) -> None:
        self._push({"type": "fault", **entry})

    def on_violation(self, t: float, monitor: str, message: str) -> None:
        self._push({
            "t": round(t, 9), "type": "violation",
            "monitor": monitor, "message": message,
        })

    def on_alert(self, alert: Alert) -> None:
        """Push the alert, then freeze the ring into a deterministic
        ``repro.monitor/1`` doc — one snapshot per alert, in firing
        order."""
        self._push({"type": "alert", **alert.to_dict()})
        self.snapshots.append({
            "schema": MONITOR_SCHEMA,
            "context": dict(sorted(self.context.items())),
            "fired_at": round(alert.t, 9),
            "alert": alert.to_dict(),
            "events": list(self.ring),
            "events_dropped": self.dropped,
            "monitors": [r.to_dict() for r in self.hub.results()],
        })


def _event_counts(events: List[dict]) -> Dict[str, int]:
    """A flight record's ring events counted by type, in type order."""
    counts: Dict[str, int] = {}
    for event in events:
        counts[event["type"]] = counts.get(event["type"], 0) + 1
    return dict(sorted(counts.items()))


def flight_digest(doc: dict) -> dict:
    """What a verdict keeps of one flight record (``online.alerts[i].flight``):
    the sha256 of its canonical bytes — exactly what ``write_flight_records``
    writes, so the verdict golden gates the body without committing it —
    and a summary to read in review: the ring's events by type, how many
    were dropped before the window, and the window's first and last
    virtual time (the last is the alert itself, pushed before the
    snapshot)."""
    events = doc["events"]
    return {
        "sha256": hashlib.sha256(canonical_json(doc).encode()).hexdigest(),
        "events": _event_counts(events),
        "dropped": doc["events_dropped"],
        "window_s": [events[0]["t"], events[-1]["t"]],
    }


def render_flight_record(doc: dict) -> str:
    """Human-readable rendering of a ``repro.monitor/1`` document (what
    ``python -m repro.obs report`` prints for one)."""
    lines: List[str] = []
    context = doc.get("context") or {}
    ctx = ", ".join(f"{k}={v}" for k, v in sorted(context.items()))
    lines.append(f"=== flight record [{ctx or 'no context'}] ===")
    alert = doc["alert"]
    lines.append(
        f"alert {alert['rule']} ({alert['severity']}) at "
        f"t={alert['t']}s: {alert['message']}"
    )
    lines.append(
        f"  burn fast={alert['burn_fast']}x slow={alert['burn_slow']}x "
        f"(threshold {alert['threshold']}x)"
    )
    events = doc.get("events") or []
    dropped = doc.get("events_dropped", 0)
    breakdown = ", ".join(f"{n} {t}" for t, n in _event_counts(events).items())
    lines.append(
        f"ring: {len(events)} event(s) ({breakdown or 'empty'}), "
        f"{dropped} dropped before the window"
    )
    for event in events:
        if event.get("type") in ("fault", "violation", "alert"):
            fields = {
                k: v for k, v in sorted(event.items()) if k not in ("t", "type")
            }
            detail = ", ".join(f"{k}={v}" for k, v in fields.items())
            lines.append(f"  t={event.get('t')}s {event['type']}: {detail}")
    lines.append("monitors at snapshot:")
    for monitor in doc.get("monitors") or []:
        status = "ok" if monitor.get("ok") else "VIOLATED"
        lines.append(
            f"  {monitor['name']:<24} {status}  "
            f"({monitor['checked']} checked, "
            f"{len(monitor['violations'])} violation(s))"
        )
    return "\n".join(lines)


def validate_flight_record(doc: dict) -> None:
    """Raise ``ValueError`` listing every schema violation in ``doc``."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        raise ValueError("flight record is not an object")
    if doc.get("schema") != MONITOR_SCHEMA:
        problems.append(
            f"schema is {doc.get('schema')!r}, expected {MONITOR_SCHEMA!r}"
        )
    for key in ("context", "fired_at", "alert", "events", "events_dropped",
                "monitors"):
        if key not in doc:
            problems.append(f"missing key {key!r}")
    events = doc.get("events")
    if isinstance(events, list):
        for i, event in enumerate(events):
            if not isinstance(event, dict) or "type" not in event:
                problems.append(f"events[{i}] has no type")
            elif event["type"] not in ("metric", "fault", "violation", "alert"):
                problems.append(f"events[{i}] has unknown type {event['type']!r}")
    elif "events" in doc:
        problems.append("events is not a list")
    alert = doc.get("alert")
    if isinstance(alert, dict):
        for key in ("t", "rule", "slo", "kind", "severity", "threshold",
                    "burn_fast", "burn_slow", "message"):
            if key not in alert:
                problems.append(f"alert missing key {key!r}")
    elif "alert" in doc:
        problems.append("alert is not an object")
    monitors = doc.get("monitors")
    if isinstance(monitors, list):
        for i, monitor in enumerate(monitors):
            for key in ("name", "ok", "checked", "violations"):
                if not isinstance(monitor, dict) or key not in monitor:
                    problems.append(f"monitors[{i}] missing key {key!r}")
    elif "monitors" in doc:
        problems.append("monitors is not a list")
    if problems:
        raise ValueError("invalid flight record: " + "; ".join(problems))
