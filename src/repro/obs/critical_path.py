"""Critical-path extraction and latency attribution over span trees.

Answers "where did this request's latency go" *exactly*: the extractor
partitions the root span's interval into segments, each charged to the
deepest span responsible for that slice of virtual time (walking the
span tree backwards from the root's end, descending into the child whose
interval covers the cursor). Segment lengths therefore sum to the root's
end-to-end duration by construction — nothing is double-counted, even
for parallel children like the replicate fan-out, and nothing is lost.

Each segment is then mapped to a *component category* — network RTT,
sequencer quorum, storage media, engine/index work, function compute —
via the span's ``kind`` (and, for generic ``handle:<method>`` handler
spans, the RPC method prefix). :class:`AttributionAggregate` folds many
traces into one running per-category decomposition so a whole benchmark
run can be summarised without retaining every span.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.trace import Span

#: Attribution categories, in report order.
CATEGORIES = (
    "network",
    "sequencer",
    "storage",
    "engine",
    "compute",
    "gateway",
    "client",
    "external",
    "other",
)

#: span.kind -> category for every kind emitted by the instrumented
#: components (see repro.sim.network / repro.core.* / repro.faas.*).
_KIND_CATEGORY = {
    "rpc": "network",
    "net": "network",
    "sequencer": "sequencer",
    "storage": "storage",
    "engine": "engine",
    "cache": "engine",
    "index": "engine",
    "function": "compute",
    "gateway": "gateway",
    "client": "client",
    "request": "client",
}

#: For ``handle:<method>`` handler spans the method prefix names the
#: component doing the work on the receiving node.
_METHOD_CATEGORY = {
    "engine": "engine",
    "index": "engine",
    "storage": "storage",
    "log": "sequencer",  # seal notifications
    "metalog": "sequencer",
    "seq": "sequencer",
    "sequencer": "sequencer",
    "gateway": "gateway",
    "faas": "compute",
    "fn": "compute",
    "worker": "compute",
    # Baseline/external services (DynamoDB, Redis, SQS, Pulsar, Cloudburst).
    "cb": "external",
    "ddb": "external",
    "pulsar": "external",
    "redis": "external",
    "sqs": "external",
}


def categorize(span: Span) -> str:
    """Component category a span's time is charged to."""
    if span.kind == "handler" and span.name.startswith("handle:"):
        method = span.name[len("handle:"):]
        prefix = method.split(".", 1)[0].split("_", 1)[0]
        return _METHOD_CATEGORY.get(prefix, "other")
    return _KIND_CATEGORY.get(span.kind, "other")


def critical_path(
    spans: Iterable[Span], trace_id: Optional[int] = None
) -> List[Tuple[Span, float, float]]:
    """Partition the root span's interval among its deepest active spans.

    Returns ``[(span, start, end), ...]`` segments ordered by start time;
    segment lengths sum exactly to the root's duration. ``trace_id``
    restricts the walk to one trace; without it, the spans must already
    belong to a single trace. Traces whose root never finished yield an
    empty path.
    """
    finished = [
        s for s in spans
        if s.finished and (trace_id is None or s.trace_id == trace_id)
    ]
    roots = [s for s in finished if s.parent_id is None]
    if not roots:
        return []
    children: Dict[int, List[Span]] = {}
    for span in finished:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    segments: List[Tuple[Span, float, float]] = []
    for root in sorted(roots, key=lambda s: (s.start, s.span_id)):
        _walk(root, children, root.start, root.end, segments)
    segments.sort(key=lambda seg: (seg[1], seg[0].span_id))
    return segments


def _walk(
    span: Span,
    children: Dict[int, List[Span]],
    lo: float,
    hi: float,
    out: List[Tuple[Span, float, float]],
) -> None:
    """Attribute [lo, hi] to ``span`` minus whatever its children cover,
    recursing into children from the latest-ending backwards (the child
    that ends last owns the tail of the window — the critical-path rule)."""
    kids = [
        c for c in children.get(span.span_id, [])
        if c.end > lo and c.start < hi
    ]
    # Later-ending child first; deterministic ties via span_id.
    kids.sort(key=lambda c: (c.end, c.span_id), reverse=True)
    cursor = hi
    for child in kids:
        if cursor <= lo:
            break
        child_end = min(child.end, cursor)
        child_start = max(child.start, lo)
        if child_end <= child_start:
            continue  # fully shadowed by an already-attributed sibling
        if cursor > child_end:
            out.append((span, child_end, cursor))
        _walk(child, children, child_start, child_end, out)
        cursor = child_start
    if cursor > lo:
        out.append((span, lo, cursor))


def attribute_trace(
    spans: Iterable[Span], trace_id: Optional[int] = None
) -> Dict[str, float]:
    """Per-category seconds along one trace's critical path.

    The values sum to the root span's end-to-end duration (floating-point
    epsilon aside); an unfinished root yields ``{}``.
    """
    out: Dict[str, float] = {}
    for span, start, end in critical_path(spans, trace_id=trace_id):
        key = categorize(span)
        out[key] = out.get(key, 0.0) + (end - start)
    return out


class AttributionAggregate:
    """Running critical-path attribution over many traces.

    Feed it batches of finished spans (e.g. one cluster's tracer output at
    a time) with :meth:`add_spans`; it keeps only per-category totals, so
    the spans themselves can be released afterwards.
    """

    def __init__(self):
        self.traces = 0
        self.total = 0.0
        self.categories: Dict[str, float] = {}
        self.root_names: Dict[str, int] = {}

    def add_spans(self, spans: Iterable[Span]) -> int:
        """Attribute every complete trace in ``spans``; returns the number
        of traces folded in."""
        finished = [s for s in spans if s.finished]
        by_trace: Dict[int, List[Span]] = {}
        for span in finished:
            by_trace.setdefault(span.trace_id, []).append(span)
        added = 0
        for trace_id in sorted(by_trace):
            tspans = by_trace[trace_id]
            roots = [s for s in tspans if s.parent_id is None]
            if not roots:
                continue
            for key, value in attribute_trace(tspans).items():
                self.categories[key] = self.categories.get(key, 0.0) + value
            for root in roots:
                self.total += root.duration
                self.root_names[root.name] = self.root_names.get(root.name, 0) + 1
            self.traces += 1
            added += 1
        return added

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready block for a benchmark artifact (deterministic order)."""
        total = self.total
        categories = {k: self.categories[k] for k in sorted(self.categories)}
        return {
            "traces": self.traces,
            "total_s": total,
            "categories_s": categories,
            "share": {
                k: (v / total if total > 0 else 0.0) for k, v in categories.items()
            },
            "roots": {k: self.root_names[k] for k in sorted(self.root_names)},
        }


def critical_path_report(spans: Iterable[Span], trace_id: int) -> str:
    """Plain-text critical path of one trace: each segment with its span,
    node, category, and share of the end-to-end latency."""
    segments = critical_path(spans, trace_id=trace_id)
    lines = [f"=== critical path (trace {trace_id}) ==="]
    if not segments:
        lines.append("(no complete trace)")
        return "\n".join(lines)
    total = sum(end - start for _, start, end in segments)
    header = f"{'t+ms':>9} {'ms':>9} {'share':>7}  {'category':<10} {'span [node]'}"
    lines.append(header)
    lines.append("-" * len(header))
    t0 = segments[0][1]
    for span, start, end in segments:
        dur = end - start
        share = dur / total if total > 0 else 0.0
        lines.append(
            f"{(start - t0) * 1e3:>9.3f} {dur * 1e3:>9.3f} {share:>6.1%}  "
            f"{categorize(span):<10} {span.name} [{span.node or '?'}]"
        )
    lines.append(f"end-to-end {total * 1e3:.3f} ms over {len(segments)} segments")
    return "\n".join(lines)
