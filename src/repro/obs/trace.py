"""Spans and trace contexts for the simulated cluster.

A *span* covers one operation (an RPC, a handler execution, an engine
read) with virtual-time start/end, a status, and a parent link; spans
sharing a ``trace_id`` form one request's causal tree. Context travels
two ways:

- **across processes**: every kernel :class:`~repro.sim.kernel.Process`
  carries a ``trace_ctx`` attribute inherited from whatever created it
  (a process, or a network call's callback chain — the carrier the
  kernel holds in ``env._active``), so ``env.process(...)`` chains keep
  the ambient context;
- **across nodes**: the recorder's network subscribers stamp the sender's
  context on each :class:`~repro.sim.network.Message` and install it on
  the carrier the receiving handler runs under, so the tree follows a
  request through worker -> engine -> sequencer/storage and back.

Tracing is purely observational: starting or finishing a span creates no
kernel events and never advances virtual time, so enabling it cannot
change simulation results — and traces themselves are deterministic.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Union

from repro.sim.kernel import Environment
from repro.sim.network import RpcTimeout

#: Span statuses. "ok" is the success path; the rest close a span on a
#: failure path ("timeout": no RPC reply; "dropped": the network dropped
#: the message; "error": the operation raised).
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"
STATUS_DROPPED = "dropped"


class SpanContext:
    """The propagated identity of a span: ``(trace_id, span_id)``."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: int, span_id: int):
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:
        return f"SpanContext(trace={self.trace_id}, span={self.span_id})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SpanContext)
            and self.trace_id == other.trace_id
            and self.span_id == other.span_id
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id))


class Span:
    """One timed operation in a trace."""

    __slots__ = (
        "name", "context", "parent_id", "node", "kind",
        "start", "end", "status", "attrs", "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        context: SpanContext,
        parent_id: Optional[int],
        node: str,
        kind: str,
        start: float,
        attrs: Optional[Dict[str, Any]] = None,
    ):
        self._tracer = tracer
        self.name = name
        self.context = context
        self.parent_id = parent_id
        self.node = node
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.status: Optional[str] = None
        self.attrs: Dict[str, Any] = attrs or {}

    @property
    def trace_id(self) -> int:
        return self.context.trace_id

    @property
    def span_id(self) -> int:
        return self.context.span_id

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} not finished")
        return self.end - self.start

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def finish(self, status: str = STATUS_OK, **attrs: Any) -> "Span":
        """Close the span at the current virtual time (idempotent)."""
        if self.end is not None:
            return self
        self.end = self._tracer.env.now
        self.status = status
        if attrs:
            self.attrs.update(attrs)
        self._tracer._finished(self)
        return self

    def __repr__(self) -> str:
        when = f"[{self.start:.6f}, {self.end:.6f}]" if self.finished else f"[{self.start:.6f}, ...)"
        return f"<Span {self.name} {self.node} {when} {self.status or 'open'}>"


class Tracer:
    """Creates spans and tracks the ambient per-process context."""

    def __init__(self, env: Environment):
        self.env = env
        #: Finished spans in finish order (deterministic for a given seed).
        self.spans: List[Span] = []
        self._open: Dict[int, Span] = {}
        self._next_span_id = 1
        self._next_trace_id = 1

    # ------------------------------------------------------------------
    # Ambient context (per kernel process or callback chain)
    # ------------------------------------------------------------------
    def current_context(self) -> Optional[SpanContext]:
        """The trace context of whatever is executing: a process, or a
        network call's callback chain."""
        active = self.env._active
        return active.trace_ctx if active is not None else None

    def set_process_context(self, ctx: Optional[SpanContext]) -> Optional[SpanContext]:
        """Install ``ctx`` on whatever is executing (and so on what it
        creates from here on); returns the previous context so callers
        can restore it."""
        active = self.env._active
        if active is None:
            return None
        prev = active.trace_ctx
        active.trace_ctx = ctx
        return prev

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def start_span(
        self,
        name: str,
        parent: Union[SpanContext, Span, None] = None,
        node: str = "",
        kind: str = "internal",
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Open a span. ``parent`` defaults to the ambient process context;
        a span with no parent at all starts a new trace."""
        if parent is None:
            parent = self.current_context()
        if isinstance(parent, Span):
            parent = parent.context
        if parent is None:
            trace_id = self._next_trace_id
            self._next_trace_id += 1
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span_id = self._next_span_id
        self._next_span_id += 1
        span = Span(
            self, name, SpanContext(trace_id, span_id), parent_id,
            node, kind, self.env.now, attrs,
        )
        self._open[span_id] = span
        return span

    def start_trace(
        self, name: str, node: str = "", kind: str = "request",
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Open a root span of a brand-new trace, ignoring ambient context."""
        trace_id = self._next_trace_id
        self._next_trace_id += 1
        span_id = self._next_span_id
        self._next_span_id += 1
        span = Span(
            self, name, SpanContext(trace_id, span_id), None,
            node, kind, self.env.now, attrs,
        )
        self._open[span_id] = span
        return span

    def instant(
        self,
        name: str,
        parent: Union[SpanContext, Span, None] = None,
        node: str = "",
        kind: str = "internal",
        status: str = STATUS_OK,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """A zero-duration span (e.g. a message drop)."""
        return self.start_span(name, parent=parent, node=node, kind=kind, attrs=attrs).finish(status)

    def span(
        self,
        name: str,
        parent: Union[SpanContext, Span, None] = None,
        node: str = "",
        kind: str = "internal",
        attrs: Optional[Dict[str, Any]] = None,
    ) -> "_SpanScope":
        """Context manager: opens a span, makes it the ambient context for
        the current process, and closes it on exit (error status when the
        block raises — including kernel :class:`Interrupt`)."""
        return _SpanScope(self, name, parent, node, kind, attrs)

    def _finished(self, span: Span) -> None:
        self._open.pop(span.span_id, None)
        self.spans.append(span)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def open_span(self, ctx: Optional[SpanContext]) -> Optional[Span]:
        """The still-open span ``ctx`` identifies, if any."""
        return self._open.get(ctx.span_id) if ctx is not None else None

    def trace(self, trace_id: int) -> List[Span]:
        """All finished spans of one trace, in start order."""
        spans = [s for s in self.spans if s.trace_id == trace_id]
        spans.sort(key=lambda s: (s.start, s.span_id))
        return spans

    def roots(self) -> Iterator[Span]:
        return (s for s in self.spans if s.parent_id is None)


class _SpanScope:
    """Context-manager wrapper produced by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_args", "span", "_prev_ctx")

    def __init__(self, tracer, name, parent, node, kind, attrs):
        self._tracer = tracer
        self._args = (name, parent, node, kind, attrs)
        self.span: Optional[Span] = None
        self._prev_ctx: Optional[SpanContext] = None

    def __enter__(self) -> Span:
        name, parent, node, kind, attrs = self._args
        self.span = self._tracer.start_span(name, parent=parent, node=node, kind=kind, attrs=attrs)
        self._prev_ctx = self._tracer.set_process_context(self.span.context)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer.set_process_context(self._prev_ctx)
        if exc_type is None:
            self.span.finish(STATUS_OK)
        else:
            status = STATUS_TIMEOUT if isinstance(exc, RpcTimeout) else STATUS_ERROR
            self.span.finish(status, error=repr(exc))
        return False
