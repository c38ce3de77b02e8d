"""Trace exporter: Chrome ``trace_event`` JSON.

The Chrome format (load in ``chrome://tracing`` or Perfetto) maps nodes
to processes and traces to threads, so one request's causal chain reads
as a lane per node. All ids, ordering, and timestamps derive from
virtual time and deterministic counters, so two runs with the same seed
export byte-identical JSON.

"Where did the latency go" is answered by :mod:`repro.obs.critical_path`.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.trace import Span

_US = 1e6  # chrome trace timestamps are microseconds


def trace_spans(spans: Iterable[Span], trace_id: int) -> List[Span]:
    """The finished spans of one trace, ordered by (start, span_id)."""
    picked = [s for s in spans if s.trace_id == trace_id and s.finished]
    picked.sort(key=lambda s: (s.start, s.span_id))
    return picked


def slowest_trace(spans: Iterable[Span]) -> Optional[int]:
    """Trace id whose root span has the longest duration, or None."""
    best: Optional[Tuple[float, int]] = None
    for span in spans:
        if span.parent_id is None and span.finished:
            key = (span.duration, -span.trace_id)
            if best is None or key > best:
                best = key
    # Recover the trace id (negated for deterministic ties: lowest wins).
    if best is None:
        return None
    return -best[1]


# ----------------------------------------------------------------------
# Chrome trace_event JSON
# ----------------------------------------------------------------------
def _instant(cat: str, name: str, t: float, args: dict) -> dict:
    """A global-scope instant event on the monitor lane (pid 0)."""
    return {
        "args": args,
        "cat": cat,
        "name": name,
        "ph": "i",
        "pid": 0,
        "s": "g",
        "tid": 0,
        "ts": round(t * _US, 3),
    }


def _process_name(pid: int, name: str) -> dict:
    """The metadata event that names process lane ``pid``."""
    return {
        "args": {"name": name},
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "tid": 0,
    }


def monitor_instants(alerts=None, transitions=None) -> List[dict]:
    """Chrome instant events (``ph: "i"``) for SLO alerts and monitor
    state transitions (repro.monitor).

    ``alerts`` is an iterable of :class:`repro.obs.alerts.Alert` (or
    their dicts); ``transitions`` is ``AlertManager.transitions``. The
    events use global scope (``s: "g"``) so the viewer draws them as
    vertical lines across every lane — pass the result to
    :func:`to_chrome_trace` via ``instants=`` to overlay "the alert
    fired HERE" on the causal span timeline."""
    events: List[dict] = []
    for alert in alerts or []:
        d = alert.to_dict() if hasattr(alert, "to_dict") else dict(alert)
        events.append(_instant("alert", f"alert:{d['rule']}", d["t"],
                               {k: d[k] for k in sorted(d) if k != "t"}))
    for tr in transitions or []:
        events.append(_instant("monitor", f"{tr['rule']}:{tr['state']}", tr["t"],
                               {"rule": tr["rule"], "state": tr["state"]}))
    events.sort(key=lambda e: (e["ts"], e["cat"], e["name"]))
    return events


def to_chrome_trace(
    spans: Iterable[Span],
    trace_id: Optional[int] = None,
    instants: Optional[List[dict]] = None,
) -> str:
    """Serialize spans as a Chrome ``trace_event`` JSON document.

    ``trace_id`` restricts the export to one trace. Each simulated node
    becomes a "process" (named via metadata events); each trace becomes a
    "thread" within it, so concurrent requests stack as separate lanes.
    ``instants`` adds pre-built instant events (:func:`monitor_instants`)
    under a dedicated "monitor" process lane (pid 0).
    """
    selected = [s for s in spans if s.finished]
    if trace_id is not None:
        selected = [s for s in selected if s.trace_id == trace_id]
    selected.sort(key=lambda s: (s.start, s.span_id))
    node_names = sorted({s.node or "?" for s in selected})
    pids = {name: i + 1 for i, name in enumerate(node_names)}
    events: List[dict] = []
    if instants:
        events.append(_process_name(0, "monitor"))
        events.extend(instants)
    for name in node_names:
        events.append(_process_name(pids[name], name))
    for span in selected:
        args: Dict[str, object] = {
            "span_id": span.span_id,
            "status": span.status,
            "trace_id": span.trace_id,
        }
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        for key in sorted(span.attrs):
            args[key] = _jsonable(span.attrs[key])
        events.append(
            {
                "args": args,
                "cat": span.kind,
                "dur": round(span.duration * _US, 3),
                "name": span.name,
                "ph": "X",
                "pid": pids[span.node or "?"],
                "tid": span.trace_id,
                "ts": round(span.start * _US, 3),
            }
        )
    doc = {"displayTimeUnit": "ms", "traceEvents": events}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def write_chrome_trace(
    path: str,
    spans: Iterable[Span],
    trace_id: Optional[int] = None,
    instants: Optional[List[dict]] = None,
) -> str:
    text = to_chrome_trace(spans, trace_id=trace_id, instants=instants)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(text)
    return text


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)
