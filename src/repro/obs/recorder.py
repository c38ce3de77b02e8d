"""The observability recorder and how it attaches to a cluster.

Protocol components carry no tracing code. :class:`ObsRecorder` attaches
from outside through the seam (:mod:`repro.sim.seam`): it subscribes to the
components' signals for point observations (message sent/dropped, handler
begin/end, queue depths, cache lookups) and wraps their declared wrap
points for region spans (``engine.append``, ``gateway.invoke``, ...). A
cluster that never enables observability pays one empty signal call per
point and allocates nothing.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import (
    STATUS_DROPPED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    Span,
    Tracer,
    failure_status,
)
from repro.sim.kernel import Environment
from repro.sim.network import RpcError, RpcTimeout
from repro.sim.seam import subscribe, wrap


class _Prefixed(dict):
    """``names[method]`` is ``prefix + method``, built once per method:
    every span of one kind shares one name string."""

    def __init__(self, prefix: str):
        self.prefix = prefix

    def __missing__(self, method: str) -> str:
        name = self[method] = self.prefix + method
        return name


class ObsRecorder:
    """Tracer + metrics registry for one cluster."""

    def __init__(self, env: Environment):
        self.env = env
        self.tracer = Tracer(env)
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, cluster) -> None:
        """Trace every component of ``cluster``."""
        self.attach_network(cluster.net)
        self.attach_gateway(cluster.gateway)
        for fnode in cluster.function_nodes:
            self.attach_function_node(fnode)
        for engine in cluster.engines.values():
            self.attach_engine(engine)
        for snode in cluster.storage_nodes:
            self.attach_storage(snode)
        for qnode in cluster.sequencer_nodes:
            self.attach_sequencer(qnode)

    def _span_point(
        self,
        component,
        point: str,
        describe: Callable[..., tuple],
        result_attr: Optional[Callable[[object], tuple]] = None,
    ) -> None:
        """Run ``component.<point>`` inside a span. ``describe(*args)``
        gives ``(name, kind, attrs)``; ``result_attr(result)`` gives one
        ``(key, value)`` attribute recorded on success."""
        tracer, node = self.tracer, component.node.name

        def wrapper(inner):
            def spanned(*args):
                name, kind, attrs = describe(*args)
                span = tracer.start_span(name, None, node, kind, attrs)
                prev = tracer.set_process_context(span)
                try:
                    result = yield from inner(*args)
                except BaseException as exc:
                    # Also a kernel Interrupt, and the GeneratorExit of a
                    # generator closed outside the kernel.
                    tracer.set_process_context(prev)
                    span.finish(failure_status(exc), error=repr(exc))
                    raise
                tracer.set_process_context(prev)
                if result_attr is not None:
                    span.set_attr(*result_attr(result))
                span.finish()
                return result
            return spanned

        wrap(component, point, wrapper, "obs")

    def _annotator(self, key: str) -> Callable[[object], None]:
        """A subscriber that records its value as attribute ``key`` of the
        span enclosing the emitting code."""
        tracer = self.tracer

        def annotate(value) -> None:
            span = tracer.open_span(tracer.current_context())
            if span is not None:  # None: the point began before we attached
                span.set_attr(key, value)
        return annotate

    def _gauge_recorder(self, name: str) -> Callable[[int], None]:
        env, gauge = self.env, None

        def record(depth: int) -> None:
            nonlocal gauge
            if gauge is None:
                gauge = self.metrics.gauge(name)
            gauge.record(env.now, depth)
        return record

    def _counter(self, name: str) -> Callable[[], None]:
        """``incr()`` of counter ``name``, which is registered by the
        first call: a counter never incremented stays out of
        ``metrics.snapshot()``."""
        counter = None

        def incr() -> None:
            nonlocal counter
            if counter is None:
                counter = self.metrics.counter(name)
            counter.incr()
        return incr

    def attach_network(self, net) -> None:
        """``rpc:`` / ``handle:`` / ``drop:`` spans, ``net.*`` counters, and
        trace-context propagation: each signal is passed the message's
        call; the sender's context rides on the call's ``carried_ctx`` and
        is installed on the receiving handler's process, so the tree
        follows a request across nodes. A one-way message sent from no
        trace (a progress report, a metalog broadcast) carries none and
        its handler opens no span."""
        tracer = self.tracer
        handling: Dict[int, Span] = {}  # msg_id -> open handle: span
        rpc_names, handle_names = _Prefixed("rpc:"), _Prefixed("handle:")
        count_rpc, count_send = self._counter("net.rpc.calls"), self._counter("net.sends")
        count_drop = self._counter("net.drops")
        count_timeout = self._counter("net.rpc.timeouts")

        def message_sent(call, is_rpc: bool) -> None:
            if is_rpc:
                # Parent = the caller's ambient context (the call carries
                # it as its trace_ctx); the message carries the rpc span
                # so the server side parents under it.
                call.carried_ctx = tracer.start_span(
                    rpc_names[call.method], None, call.src.name, "rpc", {"dst": call.dst.name}
                )
                count_rpc()
            else:
                call.carried_ctx = tracer.current_context()
                count_send()

        def message_dropped(call, reason: str) -> None:
            if reason != "reply":  # a lost reply is counted, not drawn
                tracer.instant(
                    f"drop:{call.method}", parent=call.carried_ctx, node=call.dst.name,
                    kind="net", status=STATUS_DROPPED,
                    attrs={"src": call.src.name, "reason": reason},
                )
            count_drop()

        def handler_started(call) -> None:
            parent = call.carried_ctx
            if parent is None:
                # A one-way message sent from no trace starts none; an
                # RPC request always carries its rpc: span.
                return
            span = handling[call.msg_id] = tracer.start_span(
                handle_names[call.method], parent, call.dst.name, "handler"
            )
            # The delivering call exists for this one message, so the
            # handler (and any process it starts) simply inherits this.
            tracer.set_process_context(span)

        def handler_finished(call, exc) -> None:
            span = handling.pop(call.msg_id, None)
            if span is None:
                return  # sent from no trace, or delivered before we attached
            if exc is None:
                span.finish(STATUS_OK)
            else:
                span.finish(STATUS_ERROR, error=repr(exc))

        def rpc_finished(call, exc) -> None:
            span = tracer.open_span(call.carried_ctx)
            if span is None:
                return  # sent before we attached
            if exc is None:
                span.finish(STATUS_OK)
            elif isinstance(exc, RpcTimeout):
                span.finish(STATUS_TIMEOUT, timeout=exc.timeout)
                count_timeout()
            elif isinstance(exc, RpcError):
                span.finish(STATUS_ERROR, error=repr(exc.cause))
            else:
                span.finish(STATUS_ERROR, error=repr(exc))

        subscribe(net, "message_sent", message_sent)
        subscribe(net, "message_dropped", message_dropped)
        subscribe(net, "handler_started", handler_started)
        subscribe(net, "handler_finished", handler_finished)
        subscribe(net, "rpc_finished", rpc_finished)

    def attach_engine(self, engine) -> None:
        tracer, name = self.tracer, engine.name
        self._span_point(
            engine, "append",
            lambda book_id, tags, data: ("engine.append", "engine", {"book_id": book_id}),
            lambda result: ("seqnum", result[0]),
        )
        self._span_point(
            engine, "_replicate",
            lambda asg, shard, payload, term_config:
                ("engine.replicate", "engine", {"shard": shard}),
            lambda acked: ("acked", acked),
        )
        self._span_point(
            engine, "_read_local",
            lambda log_id, book_id, *rest:
                ("engine.read_local", "engine", {"book_id": book_id, "log_id": log_id}),
            lambda result: ("found", bool(result[0])),
        )

        def describe_read_remote(log_id, book_id, *rest):
            engines = engine._index_engines_for(log_id)
            return "engine.read_remote", "engine", {
                "book_id": book_id, "log_id": log_id,
                "remote": engines[engine._remote_rr % len(engines)],
            }

        self._span_point(engine, "_read_remote", describe_read_remote)
        subscribe(engine, "cache_lookup", lambda hit: tracer.instant(
            "engine.cache_hit" if hit else "engine.cache_miss", node=name, kind="cache"
        ))
        subscribe(engine, "append_entered", self._gauge_recorder(f"queue.engine.{name}.depth"))

    def attach_storage(self, snode) -> None:
        self._span_point(
            snode, "_media_read", lambda: ("storage.media_read", "storage", None)
        )
        subscribe(snode, "write_entered",
                  self._gauge_recorder(f"queue.storage.{snode.name}.pending"))

    def attach_sequencer(self, qnode) -> None:
        """Background ordering work: each committed entry is its own
        (root) trace covering the quorum round trips."""
        tracer = self.tracer

        def wrapper(inner):
            def commit_entry(term, log_id, replica, entry, secondaries):
                span = tracer.start_trace(
                    "seq.quorum", qnode.name, "sequencer",
                    {"log_id": log_id, "entry": entry.index},
                )
                tracer.set_process_context(span)
                try:
                    acks = yield from inner(term, log_id, replica, entry, secondaries)
                except BaseException as exc:
                    # Sealed mid-round, or the primary crashed under it.
                    span.finish(STATUS_ERROR, error=repr(exc))
                    raise
                finally:
                    # The driver's broadcasts of this entry are not part
                    # of the quorum trace.
                    tracer.set_process_context(None)
                span.finish(STATUS_OK, acks=acks)
                return acks
            return commit_entry

        wrap(qnode, "_commit_entry", wrapper, "obs")

    def attach_gateway(self, gateway) -> None:
        self._span_point(
            gateway, "_dispatch",
            lambda payload: ("gateway.invoke", "gateway", {"fn": payload["fn"]}),
        )
        annotate = self._annotator("scheduled_to")
        subscribe(gateway, "node_scheduled", lambda fnode: annotate(fnode.name))
        subscribe(gateway, "inflight_changed", self._gauge_recorder("queue.gateway.inflight"))

    def attach_function_node(self, fnode) -> None:
        self._span_point(
            fnode, "_h_exec",
            lambda payload: (f"fn:{payload['fn']}", "function", {"fn": payload["fn"]}),
        )
        # Time spent waiting for a free container slot.
        subscribe(fnode, "slot_acquired", self._annotator("queue_wait"))
