"""Online invariant monitors: incremental guarantee checking inside the DES.

Each guarantee is stated once, here, as an incremental checker. While a
run is going, a :class:`MonitorHub` of these monitors is fed by
lightweight event taps in the core components (sequencer, storage,
engine, gateway) and the client libraries (BokiQueue, BokiFlow's effect
journal). Each monitor keeps O(1)/O(shards) rolling state — last
indices, watermarks, per-record sequence accounting bounded by the
in-flight set — and flags a violation the moment the observed event
stream can no longer be explained by the guarantee.

Design rules (the project's golden invariant depends on them):

- **Observe, never perturb.** Taps are subscribers of the components'
  signals (:mod:`repro.sim.seam`, wired by :meth:`MonitorHub.attach`);
  they touch no simulation state, send no messages, and consume no RNG.
  Same-seed runs are byte-identical with monitors on or off.
- **Never raise.** A detected violation is recorded and reported; the
  simulated system keeps running (the flight recorder wants the
  aftermath too).
- **The offline checkers are these monitors.** ``check_metalog``,
  ``check_exactly_once`` and ``check_queue_delivery`` in
  :mod:`repro.chaos.checkers` replay recorded state — the replicas'
  stored entries, the database's effect journal, the operation history —
  through a fresh monitor after the run, so a verdict's offline and
  online blocks are two data sources judged by one statement.

The SLO/alerting layer on top lives in :mod:`repro.obs.alerts`.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.alerts import AlertManager, FlightRecorder, flight_digest
from repro.sim.metrics import SampleWindow, SuccessWindow


def value_key(value: Any) -> str:
    """Canonical hashable form of a message or op value (dicts are
    unhashable); shared with the offline checkers so violations read
    identically."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class CheckResult:
    """Outcome of one guarantee check — an offline checker's or an online
    monitor's (``repro.chaos.checkers`` imports it from here)."""

    def __init__(self, name: str, violations: List[str], checked: int):
        self.name = name
        self.violations = violations
        self.checked = checked  # how many ops / entries were examined

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "checked": self.checked,
            "violations": list(self.violations),
        }


class Monitor:
    """What the online monitors share: how many tap events they were fed,
    how many of them they checked, and the violations found so far."""

    name = ""

    def __init__(self, sink: Optional[Callable[[str, str], None]] = None):
        self.events = 0
        self.checked = 0
        self.violations: List[str] = []
        self._sink = sink

    def flag(self, message: str) -> None:
        """Record a violation found while the run is going and hand it to
        the sink (the hub forwards it to the flight recorder)."""
        self.violations.append(message)
        if self._sink is not None:
            self._sink(self.name, message)

    def result(self) -> CheckResult:
        return CheckResult(self.name, list(self.violations), self.checked)


# ----------------------------------------------------------------------
# Metalog monotonicity + cross-replica prefix watermarks
# ----------------------------------------------------------------------
class MetalogMonitor(Monitor):
    """Metalog monotonicity and cross-replica prefix consistency (§4.5).

    Per replica of each ``(term, log)``: entry indices must be contiguous,
    per-shard progress monotone, and ``start_pos`` must equal the running
    record total. Across replicas: any two replicas must agree byte-for-
    byte on every entry index both have appended. Cross-replica state is
    a *watermark* map — entry digests are retained only for indices not
    yet confirmed by every replica seen, then dropped, so memory is
    O(replication lag), not O(log length). A replica that will append
    nothing more (:meth:`on_replica_end`) stops holding the watermark back.
    """

    name = "metalog-consistency"
    DIGEST_CAP = 4096  # hard bound on retained in-flight digests per key

    def __init__(self, sink=None):
        super().__init__(sink)
        # (node, term, log) -> [next_index, prev_progress, running_total]
        self._replica: Dict[Tuple[str, int, int], list] = {}
        # (term, log) -> {"digests": {index: digest}, "last": {node: index}}
        self._cross: Dict[Tuple[int, int], dict] = {}
        # (term, log) -> records ordered so far (for storage reconciliation)
        self.ordered_total: Dict[Tuple[int, int], int] = {}

    def on_entry(self, node: str, term: int, log_id: int, entry) -> None:
        self.events += 1
        self.checked += 1
        key = (node, term, log_id)
        state = self._replica.get(key)
        if state is None:
            state = self._replica[key] = [0, {}, 0]
        next_index, prev_progress, running_total = state
        label = f"{node} ({term},{log_id})"
        if entry.index != next_index:
            self.flag(
                f"{label}: entry {next_index} has index {entry.index}"
            )
            # Resynchronize on the observed index so one gap does not
            # cascade into a violation per subsequent entry.
            state[0] = entry.index + 1
            state[1] = entry.progress_dict()
            state[2] = entry.start_pos
            return
        progress = entry.progress_dict()
        for shard in sorted(progress):
            if progress[shard] < prev_progress.get(shard, 0):
                self.flag(
                    f"{label} entry {entry.index}: progress for shard {shard} "
                    f"regressed {prev_progress.get(shard, 0)} -> {progress[shard]}"
                )
        if entry.start_pos != running_total:
            self.flag(
                f"{label} entry {entry.index}: start_pos {entry.start_pos} "
                f"!= records ordered so far {running_total}"
            )
        delta = sum(
            progress.get(s, 0) - prev_progress.get(s, 0) for s in progress
        )
        state[0] = next_index + 1
        state[1] = progress
        state[2] = running_total + delta
        self.ordered_total[(term, log_id)] = max(
            self.ordered_total.get((term, log_id), 0), state[2]
        )
        self._check_cross(node, term, log_id, entry)

    def _check_cross(self, node: str, term: int, log_id: int, entry) -> None:
        cross = self._cross.get((term, log_id))
        if cross is None:
            cross = self._cross[(term, log_id)] = {"digests": {}, "last": {}}
        digests: Dict[int, tuple] = cross["digests"]
        digest = (entry.progress, entry.start_pos, entry.trims)
        known = digests.get(entry.index)
        if known is None:
            if len(digests) < self.DIGEST_CAP:
                digests[entry.index] = digest
        elif known != digest:
            self.flag(
                f"({term},{log_id}) entry {entry.index}: replica {node} "
                f"diverges from the agreed prefix"
            )
        cross["last"][node] = max(cross["last"].get(node, -1), entry.index)
        self._advance_watermark(cross)

    def on_replica_end(self, node: str, term: int, log_id: int) -> None:
        """``node``'s replica of ``(term, log)`` will append nothing more:
        its entries were compared as they arrived, so the watermark no
        longer waits for it."""
        cross = self._cross.get((term, log_id))
        if cross is not None and cross["last"].pop(node, None) is not None:
            self._advance_watermark(cross)

    @staticmethod
    def _advance_watermark(cross: dict) -> None:
        # Once every replica seen so far has passed an index, its digest
        # can never be contradicted again — drop it.
        if len(cross["last"]) >= 2:
            watermark = min(cross["last"].values())
            digests = cross["digests"]
            for index in [i for i in digests if i <= watermark]:
                del digests[index]


# ----------------------------------------------------------------------
# Queue no-loss / no-duplicate delivery
# ----------------------------------------------------------------------
class QueueMonitor(Monitor):
    """BokiQueue no-loss / no-duplicate delivery (§5).

    Per-record sequence accounting: every acknowledged push is tracked as
    ``value -> push seqnum`` until its delivery is confirmed, at
    which point the entry is retired — state is bounded by the in-flight
    backlog, not the run length. Per shard, delivered push seqnums must
    be strictly increasing (FIFO replay delivers oldest-first), which
    catches a duplicate or reordered delivery in O(1) at the pop that
    exhibits it. Losses are only decidable once the scenario drains the
    queue; :meth:`finish` flushes them.
    """

    name = "queue-delivery"

    def __init__(self, sink=None):
        super().__init__(sink)
        # value key -> [seqnum or None, status, delivered]
        # status: "inflight" | "acked" | "failed"
        self._pending: Dict[str, list] = {}
        # (queue, shard) -> last delivered push seqnum
        self._last_delivered: Dict[Tuple[str, int], int] = {}

    def on_push_attempt(self, queue: str, shard: int, value: Any) -> None:
        self.events += 1
        self.checked += 1
        key = value_key(value)
        if key in self._pending:
            # Delivery accounting relies on the scenarios' unique-payload
            # convention.
            self.flag(
                f"value {key} pushed twice: payloads must be unique for "
                f"delivery accounting"
            )
            return
        self._pending[key] = [None, "inflight", 0]

    def on_push_ack(self, queue: str, shard: int, value: Any, seqnum: int) -> None:
        self.events += 1
        entry = self._pending.get(value_key(value))
        if entry is None:
            return
        entry[0] = seqnum
        entry[1] = "acked"
        if entry[2]:  # delivered before the ack raced back to the producer
            self._retire(value)

    def on_push_fail(self, queue: str, shard: int, value: Any) -> None:
        self.events += 1
        entry = self._pending.get(value_key(value))
        if entry is not None and entry[1] == "inflight":
            entry[1] = "failed"  # indeterminate: may surface zero or one time

    def on_pop(self, queue: str, shard: int, value: Any) -> None:
        self.events += 1
        self.checked += 1
        if value is None:
            return  # empty poll: no delivery to account
        key = value_key(value)
        entry = self._pending.get(key)
        if entry is None:
            self.flag(
                f"value {key} popped but never pushed, or already delivered "
                f"(phantom/duplicate)"
            )
            return
        if entry[2]:
            self.flag(
                f"value {key} popped {entry[2] + 1} times (duplicate delivery)"
            )
            entry[2] += 1
            return
        entry[2] = 1
        if entry[0] is not None:
            self._check_order(queue, shard, key, entry[0])
            self._retire(value)
        # else: delivery observed before the push ack (the record was
        # durable; only the producer's ack message is still in flight) —
        # retired when on_push_ack arrives.

    def _check_order(self, queue: str, shard: int, key: str, seqnum: int) -> None:
        last = self._last_delivered.get((queue, shard), -1)
        if seqnum <= last:
            self.flag(
                f"shard {shard} of {queue!r}: delivered push seqnum {seqnum} "
                f"<= previously delivered {last} (duplicate or reorder)"
            )
        else:
            self._last_delivered[(queue, shard)] = seqnum

    def _retire(self, value: Any) -> None:
        self._pending.pop(value_key(value), None)

    def finish(self) -> None:
        """Flush loss checks: with the queue drained, an acknowledged push
        still pending delivery is a lost message."""
        for key in sorted(self._pending):
            _, status, delivered = self._pending[key]
            if status == "acked" and not delivered:
                self.violations.append(
                    f"value {key} acknowledged but never popped (lost)"
                )
        self._pending.clear()


# ----------------------------------------------------------------------
# BokiFlow exactly-once effect application
# ----------------------------------------------------------------------
class FlowMonitor(Monitor):
    """BokiFlow exactly-once effect application (§5): the database
    reports every *applied* update that carries an effect id; a repeat of
    an already-applied id is flagged at the exact write that duplicates
    it. State is one set entry per workflow step (bounded by workload
    size, not history length — ids retire with their workflows offline,
    but the scenarios here are short enough to keep them all)."""

    name = "exactly-once-effects"

    def __init__(self, sink=None):
        super().__init__(sink)
        self._applied: Dict[str, int] = {}

    def on_effect(self, effect_id: Any, table: str, key: Any) -> None:
        self.events += 1
        self.checked += 1
        eid_key = value_key(
            list(effect_id) if isinstance(effect_id, tuple) else effect_id
        )
        count = self._applied.get(eid_key, 0) + 1
        self._applied[eid_key] = count
        if count > 1:
            self.flag(
                f"effect {eid_key} applied {count} times (duplicate)"
            )

    def finish(self, expected_effects: Optional[List[Any]] = None) -> None:
        for eid in expected_effects or []:
            eid_key = value_key(list(eid) if isinstance(eid, tuple) else eid)
            if self._applied.get(eid_key, 0) == 0:
                self.violations.append(f"effect {eid_key} never applied (lost write)")


# ----------------------------------------------------------------------
# Read freshness: append -> readable lag per shard
# ----------------------------------------------------------------------
class FreshnessMonitor(Monitor):
    """Measures the append->readable lag: the virtual time between an
    engine accepting an append and the record becoming readable (its
    covering metalog entry applied locally). One in-flight entry per
    outstanding append; one :class:`SampleWindow` per shard. Sealed terms
    abort their in-flight appends — those are discarded, not counted."""

    name = "read-freshness"
    MAX_AGE = 60.0  # virtual seconds of lag samples the windows keep

    def __init__(self, sink=None):
        super().__init__(sink)
        self._inflight: Dict[Tuple[str, int], float] = {}
        self.per_shard: Dict[str, SampleWindow] = {}
        self.overall = SampleWindow()
        self.aborted = 0

    def on_append_start(self, shard: str, local_id: int, t: float) -> None:
        self.events += 1
        self._inflight[(shard, local_id)] = t

    def on_append_done(self, shard: str, local_id: int, t: float) -> None:
        self.events += 1
        t0 = self._inflight.pop((shard, local_id), None)
        if t0 is None:
            return
        self.checked += 1
        lag = t - t0
        if lag < 0:
            self.flag(
                f"shard {shard} append {local_id}: negative freshness lag {lag}"
            )
            return
        window = self.per_shard.get(shard)
        if window is None:
            window = self.per_shard[shard] = SampleWindow()
        window.record(t, lag)
        self.overall.record(t, lag)
        if self.overall.samples and t - self.overall.samples[0][0] > 4 * self.MAX_AGE:
            cutoff = t - self.MAX_AGE
            self.overall.prune(cutoff)
            for w in self.per_shard.values():
                w.prune(cutoff)

    def on_append_abort(self, shard: str, local_id: int) -> None:
        self.events += 1
        if self._inflight.pop((shard, local_id), None) is not None:
            self.aborted += 1

    def summary(self) -> dict:
        stats = self.overall.stats()
        return {
            "appends": self.checked,
            "aborted": self.aborted,
            "mean_s": round(stats["mean"], 9) if stats["count"] else None,
            "max_s": round(stats["max"], 9) if stats["count"] else None,
            "p99_s": (
                round(self.overall.quantile(0.99), 9)
                if stats["count"] else None
            ),
            "shards": len(self.per_shard),
        }


# ----------------------------------------------------------------------
# Storage record-count reconciliation
# ----------------------------------------------------------------------
class StorageMonitor(Monitor):
    """Record-count reconciliation between storage nodes and the metalog.

    Every storage apply carries ``(term, log, shard, position)``. A node
    backs only some shards of a log, so its applied positions are sparse
    — but still strictly increasing within one node incarnation (state
    is keyed by the node's crash count: a restarted node legitimately
    re-applies from scratch). Two invariants are *violations*:

    - a node applies the same or an earlier position again without
      having crashed (duplicate apply);
    - a node applies a position the metalog has not ordered yet
      (phantom ordering — checked against the metalog monitor's running
      totals, which are updated before the entry is broadcast).

    Cross-node record-count reconciliation — per ``(term, log, shard)``,
    how many records each backing node applied vs the metalog's ordered
    total — is reported in :meth:`summary` rather than flagged: in-flight
    broadcasts and crash-lost replicas make transient disagreement
    legitimate, so it is a diagnostic, not an invariant."""

    name = "record-reconciliation"

    def __init__(self, sink, metalog: MetalogMonitor):
        super().__init__(sink)
        self._metalog = metalog
        # (storage, incarnation, term, log) -> last applied position
        self._last_pos: Dict[Tuple[str, int, int, int], int] = {}
        # (term, log) -> {storage -> applied record count}
        self._counts: Dict[Tuple[int, int], Dict[str, int]] = {}

    def on_apply(
        self, storage: str, incarnation: int, term: int, log_id: int,
        shard: str, pos: int,
    ) -> None:
        self.events += 1
        self.checked += 1
        key = (storage, incarnation, term, log_id)
        last = self._last_pos.get(key)
        label = f"{storage} ({term},{log_id})"
        if last is not None and pos <= last:
            self.flag(
                f"{label}: applied position {pos} <= already applied "
                f"{last} (duplicate apply)"
            )
            return
        self._last_pos[key] = pos
        counts = self._counts.setdefault((term, log_id), {})
        counts[storage] = counts.get(storage, 0) + 1
        ordered = self._metalog.ordered_total.get((term, log_id))
        if ordered is not None and pos >= ordered:
            self.flag(
                f"{label}: applied position {pos} but the metalog has "
                f"only ordered {ordered} records"
            )

    def summary(self) -> dict:
        """Per-log reconciliation: metalog ordered total vs per-node
        applied counts (JSON-serializable, deterministic order)."""
        out = {}
        for key in sorted(self._counts):
            term, log_id = key
            out[f"{term}:{log_id}"] = {
                "ordered": self._metalog.ordered_total.get(key),
                "applied": dict(sorted(self._counts[key].items())),
            }
        return out


# ----------------------------------------------------------------------
# The hub: tap fan-in + verdict assembly
# ----------------------------------------------------------------------
class MonitorHub:
    """Owner of the per-guarantee monitors, of the gateway/admission/fault
    taps that feed the SLO windows and the flight recorder, and host of
    the alerting layer (its :class:`AlertManager` and
    :class:`FlightRecorder`; ``context`` labels the recorder's snapshots).

    Components know nothing of the hub: :meth:`attach` subscribes the
    monitors' methods (and the hub's own three taps) to their signals
    (``BokiCluster.enable_monitoring`` attaches the whole cluster;
    scenarios attach their own queue, DynamoDB model and fault injector)."""

    #: (signal a source may own, the monitor it feeds — None: the hub
    #: itself —, the method subscribed to it).
    TAPS = (
        ("metalog_entry", "metalog", "on_entry"),
        ("record_applied", "storage", "on_apply"),
        ("append_started", "freshness", "on_append_start"),
        ("append_ordered", "freshness", "on_append_done"),
        ("append_aborted", "freshness", "on_append_abort"),
        ("invoke_finished", None, "on_invoke"),
        ("admission_decided", None, "on_admission"),
        ("push_attempted", "queue", "on_push_attempt"),
        ("push_acked", "queue", "on_push_ack"),
        ("push_failed", "queue", "on_push_fail"),
        ("popped", "queue", "on_pop"),
        ("effect_applied", "flow", "on_effect"),
        ("fault_applied", None, "on_fault"),
    )

    def __init__(self, env, context: Optional[dict] = None):
        self.env = env
        self.metalog = MetalogMonitor(self._on_violation)
        self.queue = QueueMonitor(self._on_violation)
        self.flow = FlowMonitor(self._on_violation)
        self.freshness = FreshnessMonitor(self._on_violation)
        self.storage = StorageMonitor(self._on_violation, metalog=self.metalog)
        self.availability = SuccessWindow()
        self.latency_ms = SampleWindow()
        self.shed = SuccessWindow()
        self.shed_by_reason: Dict[str, int] = {}
        self._own_events = 0    # invoke / admission / fault taps
        self.recorder = FlightRecorder(self, context)
        self.alerts = AlertManager(self)
        self._finished = False

    def attach(self, *sources) -> None:
        """Subscribe to every signal of :data:`TAPS` each source owns. A
        source is a ``BokiCluster`` (meaning its gateway, engines, storage
        and sequencer nodes, and its admission and tenancy hubs if enabled)
        or any single object with such signals; one with none is an error,
        not a silent no-op."""
        for source in sources:
            if hasattr(source, "sequencer_nodes"):
                layers = [hub for hub in (source.admission, source.tenancy)
                          if hub is not None]
                self.attach(source.gateway, *source.engines.values(),
                            *source.storage_nodes, *source.sequencer_nodes,
                            *layers)
                continue
            owned = [(getattr(source, signal), monitor, method)
                     for signal, monitor, method in self.TAPS
                     if hasattr(source, signal)]
            if not owned:
                raise TypeError(f"{source!r} has no signal the monitors watch")
            for signal, monitor, method in owned:
                target = getattr(self, monitor) if monitor else self
                signal.subscribe(getattr(target, method))

    @property
    def events_seen(self) -> int:
        """Tap events observed: the hub's own plus every monitor's."""
        return self._own_events + sum(m.events for m in self.monitors())

    def _on_violation(self, monitor: str, message: str) -> None:
        """The monitors' sink: a violation found while the run is going
        lands in the flight recorder as it happens."""
        self.recorder.on_violation(self.env.now, monitor, message)

    # -- the hub's own taps --------------------------------------------
    def on_invoke(self, t_start: float, t_end: float, ok: bool) -> None:
        """Gateway client operation completed (or failed).

        Samples are keyed by *completion* time: overlapping operations
        complete out of invoke order, and completion time is the moment
        the outcome is known (what burn-rate windows measure anyway)."""
        self._own_events += 1
        self.availability.record(t_end, ok, t_done=t_end if ok else None)
        if ok:
            self.latency_ms.record(t_end, (t_end - t_start) * 1e3)
        self.recorder.on_metric(
            t_end, "gateway.op",
            {"ok": ok, "latency_ms": round((t_end - t_start) * 1e3, 6)},
        )

    def on_admission(self, t: float, admitted: bool, priority: str,
                     reason: str) -> None:
        """Admission decision (gateway limiter or a node window) from
        :mod:`repro.admission`. ``ok`` samples feed the shed-rate burn
        window; sheds also land in the flight recorder."""
        self._own_events += 1
        self.shed.record(t, admitted)
        if not admitted:
            self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1
            self.recorder.on_metric(
                t, "admission.shed",
                {"priority": priority, "reason": reason},
            )

    def on_fault(self, entry: dict) -> None:
        """Fault injector applied an event (already timeline-shaped)."""
        self._own_events += 1
        self.recorder.on_fault(entry)

    # -- verdict assembly ----------------------------------------------
    def monitors(self) -> List:
        return [self.metalog, self.queue, self.flow, self.freshness, self.storage]

    def results(self) -> List[CheckResult]:
        return [m.result() for m in self.monitors()]

    def finish(self, expected_effects: Optional[List[Any]] = None) -> None:
        """Run the end-of-run flushes (loss checks need quiescence)."""
        if self._finished:
            return
        self._finished = True
        self.queue.finish()
        self.flow.finish(expected_effects=expected_effects)

    def admission_summary(self) -> dict:
        """Windowless admission accounting for the verdict: how many
        arrivals the admission layer saw, how many it shed, and why."""
        count, ok = self.shed.counts()
        return {
            "decisions": count,
            "admitted": ok,
            "shed": count - ok,
            "shed_rate": round((count - ok) / count, 6) if count else None,
            "by_reason": dict(sorted(self.shed_by_reason.items())),
        }

    def verdict(self) -> dict:
        """Deterministic JSON-serializable online verdict (the ``online``
        key of a ``repro.chaos/2`` artifact). Each alert carries the
        :func:`~repro.obs.alerts.flight_digest` of the snapshot the
        recorder took for it — one per alert, in firing order — so the
        verdict golden gates every flight record."""
        checks = [m.result().to_dict() for m in self.monitors()]
        return {
            "enabled": True,
            "events_seen": self.events_seen,
            "checks": checks,
            "passed": all(c["ok"] for c in checks),
            "freshness": self.freshness.summary(),
            "reconciliation": self.storage.summary(),
            "admission": self.admission_summary(),
            "alerts": [
                dict(alert.to_dict(), flight=flight_digest(snapshot))
                for alert, snapshot in zip(self.alerts.alerts,
                                           self.recorder.snapshots)
            ],
        }
