"""Latency-modelled message network with RPC.

The network delivers messages between registered :class:`~repro.sim.node.Node`
objects after a one-way delay drawn from the latency model: the paper's
measured EC2 numbers, 107 us round-trip with ~15 us jitter (§7,
experimental setup).

Messages to crashed or partitioned nodes vanish, so RPCs complete only via
their timeout — the failure mode that Boki's quorum protocols and the
ZooKeeper-session failure detector are built around.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Dict, FrozenSet, Iterable, Optional, Sequence, Set, Union

from repro.sim.kernel import _PENDING, Environment, Event, Process
from repro.sim.node import Node, NodeDownError
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


@dataclass(slots=True)
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
    ):
        self.env = env
        self.streams = streams or RandomStreams(seed=0)
        self._rng = self.streams.stream("network")
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
        #: In-flight RPCs by destination node name, each an insertion-
        #: ordered dict used as a set: failed fast, in issue order, when
        #: that node crashes.
        self._inflight: Dict[str, Dict["_Call", None]] = {}
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
        return not self._partitions or frozenset((a, b)) not in self._partitions

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
        """Fail-fast: callers with an RPC in flight to a crashed node see
        :class:`RpcTimeout` now instead of at the deadline. The hint 0.0
        says the node is definitely down — fail over now rather than
        pacing as if it might still answer."""
        for call in list(self._inflight.get(node.name, ())):
            call._expire(retry_after=0.0)

    def one_way_delay(self) -> float:
        """One hop's latency: RTT/2 plus Gaussian jitter, floored at 1 us."""
        delay = DEFAULT_RTT / 2 + self._rng.gauss(0, DEFAULT_JITTER / 2)
        return max(delay, 1e-6)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def _resolve(self, node: Union[str, Node]) -> Node:
        return node if isinstance(node, Node) else self.nodes[node]

    def send(self, src: Union[str, Node], dst: Union[str, Node], method: str, payload: Any = None) -> None:
        """One-way, best-effort message: runs the destination handler after
        the network delay; no reply, errors in the handler are swallowed."""
        src_node, dst_node = self._resolve(src), self._resolve(dst)
        if src_node.alive:
            _Call._depart((self._announce(src_node, dst_node, method, payload),))

    def multicast(self, src: Union[str, Node], dsts: Iterable[Union[str, Node]], method: str,
                  payload: Any = None) -> None:
        """:meth:`send` the same payload to each of ``dsts``, in order: the
        same message ids, delays and arrivals as consecutive sends: every
        message is announced before the first one departs."""
        src_node, dst_nodes = self._resolve(src), [self._resolve(dst) for dst in dsts]
        if src_node.alive and dst_nodes:
            _Call._depart([self._announce(src_node, dst_node, method, payload) for dst_node in dst_nodes])

    def _announce(self, src_node: Node, dst_node: Node, method: str, payload: Any) -> "_Call":
        """Number and announce a one-way message (an RPC is numbered and
        announced in ``_begin``, and only if its source is up)."""
        msg = Message(next(self._msg_ids), src_node.name, dst_node.name, method, payload)
        self.messages_sent += 1
        self.message_sent(msg, False)
        return _Call(self, src_node, dst_node, msg, None)

    def rpc(self, src: Union[str, Node], dst: Union[str, Node], method: str,
            payload: Any = None, timeout: Optional[float] = None) -> Event:
        """Request/response call; yield the returned event for the result.

        Raises :class:`RpcTimeout` if the reply does not arrive in time and
        :class:`RpcError` if the remote handler raised.
        """
        call = self._request(self._resolve(src), dst, method, payload, timeout)
        _Call._begin((call,))
        return call

    def rpc_all(self, src: Union[str, Node], dsts: Iterable[Union[str, Node]], method: str,
                payload: Any = None, timeout: Optional[float] = None) -> Event:
        """:meth:`rpc` the same payload to each of ``dsts``, in order: the
        same message ids, delays, arrivals and replies as consecutive rpcs:
        every request is announced and armed before the first departs.
        Returns the :meth:`~repro.sim.kernel.Environment.gather` of the calls: yield it
        for the list of them once every one has completed, then look at
        each call's ``ok`` and ``value`` (the result, or the exception
        ``yield call`` would have raised)."""
        src_node = self._resolve(src)
        calls = [self._request(src_node, dst, method, payload, timeout) for dst in dsts]
        if calls:
            _Call._begin(calls)
        return self.env.gather(calls)

    def _request(self, src_node: Node, dst: Union[str, Node], method: str, payload: Any,
                 timeout: Optional[float]) -> "_Call":
        dst_node = self._resolve(dst)
        msg = Message(0, src_node.name, dst_node.name, method, payload)  # id assigned at _begin
        return _Call(self, src_node, dst_node, msg, timeout if timeout is not None else DEFAULT_RPC_TIMEOUT)


class _Call(Event):
    """One message on its way, as a chain of callbacks rather than a
    process: ``[_begin →] _depart → _arrive → handler [→ _handled →
    _deliver]``. The two start steps run inside ``rpc()`` / ``send()``
    (over the whole list for a fan-out), so the arrival is a message's
    first heap entry: a send costs one entry, an RPC two.

    For an RPC (``timeout`` set) this is also the event the caller yields:
    it succeeds with the handler's result or fails with :class:`RpcError`
    (both in :meth:`_deliver`) or :class:`RpcTimeout` (:meth:`_expire`). A
    one-way send stops after the handler and never triggers.

    The call carries the ambient trace context of whoever created it and
    is ``env._active`` while ``message_sent`` and the handler run, so the
    spans they open, and the processes they start, stay in that trace.
    """

    __slots__ = ("net", "src", "dst", "msg", "timeout", "timer", "trace_ctx")

    def __init__(self, net: Network, src: Node, dst: Node, msg: Message, timeout: Optional[float]):
        self.env = env = net.env
        self.callbacks = []
        self._state, self._value, self._ok = _PENDING, None, True
        self.net, self.src, self.dst, self.msg = net, src, dst, msg
        self.timeout, self.timer = timeout, None
        active = env._active
        self.trace_ctx = active.trace_ctx if active is not None else None

    @staticmethod
    def _begin(calls: Sequence["_Call"]) -> None:
        """RPCs only, inside ``rpc()`` / ``rpc_all()``: number and announce
        each request, arm its deadline and register it for fail-fast, in
        list order; then depart them all. From a crashed source every call
        fails instead, from an entry of its own (never inside the caller)."""
        first = calls[0]
        net, env, src = first.net, first.env, first.src
        if not src.alive:
            for call in calls:
                call.fail(NodeDownError(src.name))
            return
        caller = env._active
        try:
            for call in calls:
                call.msg.msg_id = next(net._msg_ids)
                net.messages_sent += 1
                env._active = call
                net.message_sent(call.msg, True)
                call.timer = env.timer(call.timeout, _Call._expire, call)
                # A destination already down now still waits out the full
                # timeout, as a real client would; one that crashes later
                # fails this fast.
                net._inflight.setdefault(call.dst.name, {})[call] = None
        finally:
            env._active = caller
        _Call._depart(calls)

    @staticmethod
    def _depart(calls: Sequence["_Call"]) -> None:
        """The request legs, in list order: link faults, then the one-way
        delay."""
        for call in calls:
            net, src, dst, msg = call.net, call.src, call.dst, call.msg
            extra_delay = 0.0
            if net._link_faults:
                # Only one-way sends duplicate, and a duplicate is never re-duplicated.
                dropped, duplicated, extra_delay = net._hop_fault(
                    src.name, dst.name, allow_dup=call.timeout is None and not msg.dup
                )
                if duplicated:
                    dup = _Call(net, src, dst, replace(msg, msg_id=next(net._msg_ids), dup=True), None)
                    dup.trace_ctx = call.trace_ctx
                    net.messages_sent += 1
                    call.env.call_later(0.0, _Call._depart, (dup,))
                if dropped:
                    net.message_dropped(msg, "chaos")
                    continue
            call.env.call_later(net.one_way_delay() + extra_delay + dst.slowdown, _Call._arrive, call)

    def _arrive(self) -> None:
        """At the destination: run the handler, inline or as a process."""
        net, env, dst, msg = self.net, self.env, self.dst, self.msg
        if not dst.alive or not net.reachable(self.src.name, dst.name):
            net.message_dropped(msg, "down" if not dst.alive else "partition")
            return
        if self.timeout is None and msg.method not in dst.handlers:
            return  # a one-way message nobody listens for
        env._active = self
        try:
            net.handler_started(msg)
            try:
                result = dst.handler_for(msg.method)(msg.payload)
            except Exception as exc:  # noqa: BLE001 - shipped back to an RPC caller
                self._handled(False, exc)
                return
            if hasattr(result, "throw"):
                # A generator handler: a process whose first step runs here.
                Process(env, result, on_exit=self._handled)
            else:
                self._handled(True, result)
        finally:
            env._active = None

    def _handled(self, ok: bool, value: Any) -> None:
        """The handler returned or raised: report it; for an RPC, start the
        reply leg. Its delay and fault draws are made even when the caller
        has already given up, as a real server would still answer."""
        net = self.net
        net.handler_finished(self.msg, None if ok else value)
        if self.timeout is None:
            return
        reply_delay = net.one_way_delay()
        if net._link_faults:
            dropped, _, extra_delay = net._hop_fault(self.dst.name, self.src.name, allow_dup=False)
            if dropped:
                net.message_dropped(self.msg, "reply")
                return
            reply_delay += extra_delay
        if self._state == _PENDING:
            self.env.call_later(reply_delay, _Call._deliver, (self, ok, value))

    @staticmethod
    def _deliver(reply: tuple) -> None:
        """The reply arrived: wake the caller from this entry."""
        self, ok, value = reply
        # The replying node must still be up, and the link back intact.
        if (self._state == _PENDING and self.dst.alive and self.src.alive
                and self.net.reachable(self.src.name, self.dst.name)):
            self._ok, self._value = ok, value if ok else RpcError(self.msg.method, value)
            self._settle(None if ok else self._value)
            self._run_callbacks()

    def _expire(self, retry_after: Optional[float] = None) -> None:
        """The deadline passed, or the destination crashed. The caller is
        woken by an entry of its own: a crash runs this inside
        ``node.crash()``, which must not resume anybody re-entrantly."""
        exc = RpcTimeout(self.msg.method, self.msg.dst, self.timeout, retry_after)
        self._settle(exc)
        self.fail(exc)

    def _settle(self, exc: Optional[BaseException]) -> None:
        """The RPC is over: leave the fail-fast registry, take the deadline
        off the heap, report."""
        net = self.net
        net._inflight[self.msg.dst].pop(self, None)
        self.timer.cancel()
        net.rpc_finished(self.msg, exc)
