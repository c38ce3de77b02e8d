"""Latency-modelled message network with RPC.

The network delivers messages between registered :class:`~repro.sim.node.Node`
objects after a one-way delay drawn from the configured latency model. The
default parameters are the paper's measured EC2 numbers: 107 us round-trip
with ~15 us jitter (§7, experimental setup).

Messages to crashed or partitioned nodes vanish, so RPCs complete only via
their timeout — the failure mode that Boki's quorum protocols and the
ZooKeeper-session failure detector are built around.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Generator, Optional, Set, Union

from repro.sim.kernel import AnyOf, Environment, Event, Process
from repro.sim.node import Node
from repro.sim.randvar import RandomStreams
from repro.sim.seam import Signal

DEFAULT_RTT = 107e-6
DEFAULT_JITTER = 15e-6
DEFAULT_RPC_TIMEOUT = 1.0


class RpcError(Exception):
    """The remote handler raised; wraps the original exception as ``cause``."""

    def __init__(self, method: str, cause: BaseException):
        super().__init__(f"rpc {method!r} failed: {cause!r}")
        self.method = method
        self.cause = cause


def unwrap_failure(exc: BaseException) -> BaseException:
    """Strip nested :class:`RpcError` layers down to the root cause.

    Unlike a naive cause-chain walk this *stops* at the first
    non-``RpcError`` — so an ``RpcTimeout`` buried under relay hops (the
    gateway's call to a function node timing out, shipped back to the
    client as an ``RpcError``) comes back as the ``RpcTimeout`` itself,
    keeping the timeout-vs-failure distinction intact for retry policies.
    """
    cause: BaseException = exc
    while isinstance(cause, RpcError):
        cause = cause.cause
    return cause


class RpcTimeout(Exception):
    """No reply arrived within the RPC timeout (drop, crash, or partition).

    ``retry_after`` is an optional machine-readable pacing hint (seconds)
    for retry layers: fail-fast rejections (the destination *definitely*
    crashed mid-call) carry ``0.0`` — fail over elsewhere immediately,
    there is nothing to wait for — while ordinary (ambiguous) timeouts
    carry ``None`` and leave pacing to the caller's backoff policy.
    ``repro.resil`` treats the hint as a floor on its backoff; see
    ``repro.admission.retry_after_hint``.
    """

    def __init__(self, method: str, dst: str, timeout: float,
                 retry_after: Optional[float] = None):
        super().__init__(f"rpc {method!r} to {dst} timed out after {timeout}s")
        self.method = method
        self.dst = dst
        self.timeout = timeout
        self.retry_after = retry_after


@dataclass
class Message:
    """A message in flight; carries the sender's trace context so a
    request's span tree follows it across nodes (``repro.obs``)."""

    msg_id: int
    src: str
    dst: str
    method: str
    payload: Any = None
    trace_ctx: Any = None
    #: True for a chaos-injected duplicate (never re-duplicated).
    dup: bool = False


@dataclass
class LinkFault:
    """Per-directed-link fault probabilities (repro.chaos).

    ``drop`` and ``dup`` are per-message probabilities in [0, 1]; ``delay``
    is a fixed extra one-way latency in seconds.
    """

    drop: float = 0.0
    dup: float = 0.0
    delay: float = 0.0


class Network:
    """Connects nodes; provides one-way sends and request/response RPC."""

    def __init__(
        self,
        env: Environment,
        streams: Optional[RandomStreams] = None,
        rtt: float = DEFAULT_RTT,
        jitter: float = DEFAULT_JITTER,
        rpc_timeout: float = DEFAULT_RPC_TIMEOUT,
    ):
        self.env = env
        self.streams = streams or RandomStreams(seed=0)
        self._rng = self.streams.stream("network")
        self.rtt = rtt
        self.jitter = jitter
        self.rpc_timeout = rpc_timeout
        self.nodes: Dict[str, Node] = {}
        self._partitions: Set[FrozenSet[str]] = set()
        self._isolated: Set[str] = set()
        #: Directed (src, dst) -> LinkFault; empty unless chaos faults are
        #: installed, so the common path costs one truthiness check.
        self._link_faults: Dict[tuple, LinkFault] = {}
        #: Dedicated RNG for fault draws, created lazily on the first
        #: installed fault so fault-free simulations consume exactly the
        #: same random streams as before.
        self._chaos_rng = None
        #: Pending fail-fast events for in-flight RPCs, keyed by
        #: destination node name (resolved when that node crashes).
        self._inflight: Dict[str, list] = {}
        self._msg_ids = itertools.count(1)
        self.messages_sent = 0
        #: Signals (see repro.sim.seam). Observers may stamp
        #: ``msg.trace_ctx`` in ``message_sent``; nothing else is theirs
        #: to change.
        self.message_sent = Signal()      # (msg, is_rpc)
        self.message_dropped = Signal()   # (msg, reason)
        self.handler_started = Signal()   # (msg)
        self.handler_finished = Signal()  # (msg, exc or None)
        self.rpc_finished = Signal()      # (msg, exc or None)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def register(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        node.crash_hooks.append(self._on_node_crash)
        return node

    def node(self, name: str) -> Node:
        return self.nodes[name]

    def partition(self, a: str, b: str) -> None:
        """Cut the link between two nodes (messages silently dropped)."""
        self._partitions.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        self._partitions.discard(frozenset((a, b)))

    def isolate(self, name: str) -> None:
        """Cut every link to/from ``name`` (the node itself stays up)."""
        self._isolated.add(name)

    def unisolate(self, name: str) -> None:
        self._isolated.discard(name)

    def partition_groups(self, groups) -> None:
        """Partition the given groups of node names from each other.

        Nodes within a group remain mutually connected; nodes not listed in
        any group keep all their links. Builds on pairwise
        :meth:`partition`, so :meth:`heal_all` undoes it.
        """
        groups = [list(group) for group in groups]
        for i, group_a in enumerate(groups):
            for group_b in groups[i + 1:]:
                for a in group_a:
                    for b in group_b:
                        self.partition(a, b)

    def heal_all(self) -> None:
        self._partitions.clear()
        self._isolated.clear()

    def reachable(self, a: str, b: str) -> bool:
        if self._isolated and (a in self._isolated or b in self._isolated):
            return False
        return frozenset((a, b)) not in self._partitions

    # ------------------------------------------------------------------
    # Fault injection (repro.chaos)
    # ------------------------------------------------------------------
    def set_link_fault(
        self,
        a: str,
        b: str,
        drop: float = 0.0,
        dup: float = 0.0,
        delay: float = 0.0,
        symmetric: bool = True,
    ) -> None:
        """Install per-message drop/dup/extra-delay faults on a link.

        Faults are directed (``a`` → ``b``); with ``symmetric=True`` the
        reverse direction gets an identical, independently-drawn fault.
        Duplication applies only to one-way sends (RPC request/reply legs
        honour drop and delay; duplicating a request would re-execute its
        handler, which is a different fault than the network can inject).
        """
        if self._chaos_rng is None:
            self._chaos_rng = self.streams.stream("chaos-net")
        self._link_faults[(a, b)] = LinkFault(drop=drop, dup=dup, delay=delay)
        if symmetric:
            self._link_faults[(b, a)] = LinkFault(drop=drop, dup=dup, delay=delay)

    def clear_link_fault(self, a: str, b: str, symmetric: bool = True) -> None:
        self._link_faults.pop((a, b), None)
        if symmetric:
            self._link_faults.pop((b, a), None)

    def clear_link_faults(self) -> None:
        self._link_faults.clear()

    def _hop_fault(self, src_name: str, dst_name: str, allow_dup: bool):
        """Decide one directed hop's fate: (dropped, duplicated, extra_delay).

        Draws from the chaos RNG only when a fault is installed on this
        directed link, in a fixed order (drop, then dup), so fault-free
        links never consume randomness.
        """
        fault = self._link_faults.get((src_name, dst_name))
        if fault is None:
            return False, False, 0.0
        rng = self._chaos_rng
        dropped = fault.drop > 0.0 and rng.random() < fault.drop
        duplicated = allow_dup and fault.dup > 0.0 and rng.random() < fault.dup
        return dropped, duplicated, fault.delay

    def _on_node_crash(self, node: Node) -> None:
        """Fail-fast: resolve in-flight RPC waits targeting a crashed node
        so callers see :class:`RpcTimeout` now instead of at the deadline."""
        waiters = self._inflight.pop(node.name, None)
        if not waiters:
            return
        for event in waiters:
            if not event.triggered:
                event.succeed(None)

    def one_way_delay(self) -> float:
        """One hop's latency: RTT/2 plus Gaussian jitter, floored at 1 us."""
        delay = self.rtt / 2 + self._rng.gauss(0, self.jitter / 2)
        return max(delay, 1e-6)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def _resolve(self, node: Union[str, Node]) -> Node:
        return node if isinstance(node, Node) else self.nodes[node]

    def send(self, src: Union[str, Node], dst: Union[str, Node], method: str, payload: Any = None) -> None:
        """One-way, best-effort message: runs the destination handler after
        the network delay; no reply, errors in the handler are swallowed
        into a failed (unobserved) process."""
        src_node, dst_node = self._resolve(src), self._resolve(dst)
        if not src_node.alive:
            return
        msg = Message(next(self._msg_ids), src_node.name, dst_node.name, method, payload)
        self.messages_sent += 1
        self.message_sent(msg, False)
        self.env.process(self._deliver_oneway(src_node, dst_node, msg), name=f"send:{method}")

    def _deliver_oneway(self, src: Node, dst: Node, msg: Message) -> Generator:
        extra_delay = 0.0
        if self._link_faults:
            dropped, duplicated, extra_delay = self._hop_fault(
                src.name, dst.name, allow_dup=not msg.dup
            )
            if duplicated:
                dup_msg = Message(
                    next(self._msg_ids), msg.src, msg.dst, msg.method,
                    msg.payload, msg.trace_ctx, dup=True,
                )
                self.messages_sent += 1
                self.env.process(
                    self._deliver_oneway(src, dst, dup_msg),
                    name=f"send:{msg.method}:dup",
                )
            if dropped:
                self.message_dropped(msg, "chaos")
                return
        yield self.env.timeout(self.one_way_delay() + extra_delay + dst.slowdown)
        if not dst.alive or not self.reachable(src.name, dst.name):
            self.message_dropped(msg, "down" if not dst.alive else "partition")
            return
        handler = dst.handlers.get(msg.method)
        if handler is None:
            return
        self.handler_started(msg)
        try:
            result = handler(msg.payload)
        except Exception as exc:  # noqa: BLE001 - report, then fail as before
            self.handler_finished(msg, exc)
            raise
        if hasattr(result, "throw"):  # generator handler: run as a process
            self.env.process(self._ignore_errors(result, msg), name=f"handle:{msg.method}")
        else:
            self.handler_finished(msg, None)

    def _ignore_errors(self, generator: Generator, msg: Message) -> Generator:
        try:
            yield from generator
        except Exception as exc:  # noqa: BLE001 - best-effort delivery semantics
            self.handler_finished(msg, exc)
        else:
            self.handler_finished(msg, None)

    def rpc(
        self,
        src: Union[str, Node],
        dst: Union[str, Node],
        method: str,
        payload: Any = None,
        timeout: Optional[float] = None,
    ) -> Process:
        """Request/response call; yield the returned process for the result.

        Raises :class:`RpcTimeout` if the reply does not arrive in time and
        :class:`RpcError` if the remote handler raised.
        """
        src_node, dst_node = self._resolve(src), self._resolve(dst)
        deadline = timeout if timeout is not None else self.rpc_timeout
        return self.env.process(
            self._rpc(src_node, dst_node, method, payload, deadline),
            name=f"rpc:{method}",
        )

    def _rpc(self, src: Node, dst: Node, method: str, payload: Any, timeout: float) -> Generator:
        src.check_alive()
        msg = Message(next(self._msg_ids), src.name, dst.name, method, payload)
        self.messages_sent += 1
        self.message_sent(msg, True)
        reply = Event(self.env)
        self.env.process(self._serve(src, dst, msg, reply), name=f"serve:{method}")
        timer = self.env.timeout(timeout)
        # Fail fast if the destination crashes while this call is in flight
        # (a node that is already down when the call starts still waits out
        # the full timeout, as a real client would).
        down = Event(self.env)
        self._inflight.setdefault(dst.name, []).append(down)
        try:
            try:
                yield AnyOf(self.env, [reply, timer, down])
            finally:
                waiters = self._inflight.get(dst.name)
                if waiters is not None:
                    try:
                        waiters.remove(down)
                    except ValueError:
                        pass
                    if not waiters:
                        self._inflight.pop(dst.name, None)
            if not reply.triggered:
                # Fail-fast (the destination crashed mid-call): hint 0.0 —
                # the node is definitely down, fail over now rather than
                # pacing as if it might still answer.
                raise RpcTimeout(method, dst.name, timeout,
                                 retry_after=0.0 if down.triggered else None)
            status, value = reply.value
            if status == "err":
                raise RpcError(method, value)
        except BaseException as exc:  # timeout, remote error, interrupted caller, ...
            self.rpc_finished(msg, exc)
            raise
        self.rpc_finished(msg, None)
        return value

    def _serve(self, src: Node, dst: Node, msg: Message, reply: Event) -> Generator:
        extra_delay = 0.0
        if self._link_faults:
            dropped, _, extra_delay = self._hop_fault(src.name, dst.name, allow_dup=False)
            if dropped:
                self.message_dropped(msg, "chaos")
                return
        yield self.env.timeout(self.one_way_delay() + extra_delay + dst.slowdown)
        if not dst.alive or not self.reachable(src.name, dst.name):
            self.message_dropped(msg, "down" if not dst.alive else "partition")
            return
        self.handler_started(msg)
        try:
            handler = dst.handler_for(msg.method)
            result = handler(msg.payload)
            if hasattr(result, "throw"):
                result = yield self.env.process(result, name=f"handle:{msg.method}")
            outcome = ("ok", result)
        except Exception as exc:  # noqa: BLE001 - shipped back to the caller
            outcome = ("err", exc)
            self.handler_finished(msg, exc)
        else:
            self.handler_finished(msg, None)
        reply_delay = self.one_way_delay()
        if self._link_faults:
            dropped, _, extra_delay = self._hop_fault(dst.name, src.name, allow_dup=False)
            if dropped:
                self.message_dropped(msg, "reply")
                return
            reply_delay += extra_delay
        yield self.env.timeout(reply_delay)
        # The replying node must still be up, and the link back intact.
        if not dst.alive or not src.alive or not self.reachable(src.name, dst.name):
            return
        if not reply.triggered:
            reply.succeed(outcome)
