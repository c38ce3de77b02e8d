"""Spans and trace contexts for the simulated cluster.

A *span* covers one operation (an RPC, a handler execution, an engine
read) with virtual-time start/end, a status, and a parent link; spans
sharing a ``trace_id`` form one request's causal tree. A span is its
own context: what travels is the span object, and a span opened where
no context is (a harness request, an RPC from no trace, a quorum round)
roots a new trace. Context travels two ways:

- **across processes**: every kernel :class:`~repro.sim.kernel.Process`
  carries a ``trace_ctx`` attribute inherited from whatever created it
  (a process, or a network call's callback chain — the carrier the
  kernel holds in ``env._active``), so ``env.process(...)`` chains keep
  the ambient context;
- **across nodes**: the recorder's network subscribers stamp the sender's
  context on each message's call (its ``carried_ctx``, beside the call's
  own ambient ``trace_ctx``) and install it on the carrier the receiving
  handler runs under, so the tree follows a request through worker ->
  engine -> sequencer/storage and back.

Tracing is purely observational: starting or finishing a span creates no
kernel events and never advances virtual time, so enabling it cannot
change simulation results — and traces themselves are deterministic.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.sim.kernel import Environment
from repro.sim.network import RpcTimeout

#: Span statuses. "ok" is the success path; the rest close a span on a
#: failure path ("timeout": no RPC reply; "dropped": the network dropped
#: the message; "error": the operation raised).
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"
STATUS_DROPPED = "dropped"


class Span:
    """One timed operation in a trace, and its own propagated context:
    what travels on a process, a call or a message is the span itself,
    read for its ``(trace_id, span_id)``."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "node", "kind",
        "start", "end", "status", "attrs", "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        node: str,
        kind: str,
        start: float,
        attrs: Optional[Dict[str, Any]] = None,
    ):
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.node = node
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.status: Optional[str] = None
        self.attrs: Dict[str, Any] = attrs or {}

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
        tracer = self._tracer
        self.end = tracer.env._now
        self.status = status
        if attrs:
            self.attrs.update(attrs)
        tracer.spans.append(self)
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
        self._next_span_id = 1
        self._next_trace_id = 1

    # ------------------------------------------------------------------
    # Ambient context (per kernel process or callback chain)
    # ------------------------------------------------------------------
    def current_context(self) -> Optional[Span]:
        """The trace context of whatever is executing: a process, or a
        network call's callback chain."""
        active = self.env._active
        return active.trace_ctx if active is not None else None

    def set_process_context(self, ctx: Optional[Span]) -> Optional[Span]:
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
        parent: Optional[Span] = None,
        node: str = "",
        kind: str = "internal",
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Open a span. ``parent`` defaults to the ambient process context;
        a span with no parent at all starts a new trace."""
        env = self.env
        if parent is None:
            active = env._active
            if active is not None:
                parent = active.trace_ctx
            if parent is None:
                return self.start_trace(name, node, kind, attrs)
        span_id = self._next_span_id
        self._next_span_id = span_id + 1
        return Span(
            self, name, parent.trace_id, span_id, parent.span_id,
            node, kind, env._now, attrs,
        )

    def start_trace(
        self, name: str, node: str = "", kind: str = "request",
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Open a root span of a brand-new trace, ignoring ambient context."""
        trace_id = self._next_trace_id
        self._next_trace_id = trace_id + 1
        span_id = self._next_span_id
        self._next_span_id = span_id + 1
        return Span(self, name, trace_id, span_id, None, node, kind, self.env._now, attrs)

    def instant(
        self,
        name: str,
        parent: Optional[Span] = None,
        node: str = "",
        kind: str = "internal",
        status: str = STATUS_OK,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """A zero-duration span (e.g. a message drop)."""
        return self.start_span(name, parent, node, kind, attrs).finish(status)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def open_span(self, ctx: Optional[Span]) -> Optional[Span]:
        """The span ``ctx`` carries, if it is still open."""
        return ctx if ctx is not None and ctx.end is None else None


def failure_status(exc: BaseException) -> str:
    """The status that closes a span whose operation raised ``exc``."""
    return STATUS_TIMEOUT if isinstance(exc, RpcTimeout) else STATUS_ERROR
