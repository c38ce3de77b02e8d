"""Offline guarantee checkers over recorded state.

Each checker returns a :class:`CheckResult` with a deterministic,
JSON-serializable list of violations (empty = the guarantee held).

Three of the four guarantees are stated once, as the incremental
monitors of :mod:`repro.obs.monitor`; their checkers here only replay
what the run left behind through a fresh monitor, in a fixed order. Each
replays its own data source — the sequencers' *stored* metalog replicas,
the database's *journal* of applied effects, the recorded operation
*history* — not the signals the online hub saw, which is what keeps the
offline verdict a second observation rather than a copy of the first.

Store linearizability is the exception, and stays a separate algorithm:
a Wing & Gong search over whole register histories, which has no
incremental form. It is the one independent oracle.

Checkers are conservative in the Jepsen sense: operations that never
completed (client crashed, RPC timed out) are *indeterminate* — they may
or may not have taken effect — and the checkers accept any outcome
consistent with that ambiguity. Only behavior that no interleaving of
indeterminate operations can explain is flagged.
"""

from __future__ import annotations

from math import inf
from typing import Any, Iterable, List, Tuple

from repro.chaos.history import FAIL, OK, History
from repro.obs.monitor import (
    CheckResult,
    FlowMonitor,
    MetalogMonitor,
    QueueMonitor,
    value_key,
)


# ----------------------------------------------------------------------
# BokiStore: single-key linearizability (Wing & Gong)
# ----------------------------------------------------------------------
def check_store_linearizability(history: History) -> CheckResult:
    """WGL-style linearizability of ``store.put``/``store.get`` per key.

    Each key is an independent register holding the whole object dict.
    Reads that did not complete are dropped (no side effects); writes that
    did not complete are indeterminate — they may linearize at any point
    after their invocation, or never.
    """
    store_ops = [op for op in history.ops if op.kind in ("store.put", "store.get")]
    violations: List[str] = []
    keys = sorted({op.key for op in store_ops})
    for key in keys:
        ops = []
        for op in store_ops:
            if op.key != key:
                continue
            if op.kind == "store.get":
                if op.status != "ok":
                    continue  # incomplete read: no effects, uncheckable
                ops.append({
                    "op_id": op.op_id, "kind": "r",
                    "val": value_key(op.result),
                    "t_inv": op.t_invoke, "t_ret": op.t_return,
                })
            else:
                ops.append({
                    "op_id": op.op_id, "kind": "w",
                    "val": value_key(op.value),
                    "t_inv": op.t_invoke,
                    # fail/invoked writes are indeterminate: unconstrained
                    # return time, and they may never take effect.
                    "t_ret": op.t_return if op.status == "ok" else inf,
                })
        if not register_linearizable(ops):
            violations.append(
                f"key {key!r}: history of {len(ops)} ops is not linearizable"
            )
    return CheckResult("store-linearizability", violations, len(store_ops))


def register_linearizable(ops: List[dict]) -> bool:
    """Wing & Gong search over one register's operations.

    State = (frozenset of remaining op ids, register value). An operation
    may be linearized first iff no other remaining operation returned
    before it was invoked. Memoized, candidates visited in op-id order for
    determinism. Initial register value is JSON null (object absent).
    """
    if not ops:
        return True
    by_id = {o["op_id"]: o for o in ops}
    initial = (frozenset(by_id), "null")
    visited = set()
    stack = [initial]
    while stack:
        remaining, value = stack.pop()
        if all(by_id[i]["t_ret"] == inf for i in remaining):
            # Only indeterminate writes left: legal for none of them to
            # have ever taken effect.
            return True
        if (remaining, value) in visited:
            continue
        visited.add((remaining, value))
        min_ret = min(by_id[i]["t_ret"] for i in remaining)
        for op_id in sorted(remaining):
            op = by_id[op_id]
            if op["t_inv"] > min_ret:
                continue  # some other op completed strictly before this began
            if op["kind"] == "r":
                if op["val"] != value:
                    continue
                stack.append((remaining - {op_id}, value))
            else:
                stack.append((remaining - {op_id}, op["val"]))
    return False


# ----------------------------------------------------------------------
# BokiFlow: exactly-once effect application
# ----------------------------------------------------------------------
def check_exactly_once(
    effect_log: Iterable[Tuple[Any, str, Any]],
    expected_effects: Iterable[Any],
) -> CheckResult:
    """No duplicated, no lost effects, judged by :class:`FlowMonitor`.

    ``effect_log`` is the database's applied-effect journal (one entry per
    *applied* update carrying an effect id); ``expected_effects`` are the
    effect ids that a completed workflow must have applied.
    """
    monitor = FlowMonitor()
    for entry in effect_log:
        monitor.on_effect(*entry)
    monitor.finish(list(expected_effects))
    return monitor.result()


# ----------------------------------------------------------------------
# BokiQueue: no-loss / no-duplicate delivery
# ----------------------------------------------------------------------
def check_queue_delivery(history: History) -> CheckResult:
    """Every acknowledged push is delivered exactly once, in per-shard
    order, judged by :class:`QueueMonitor` over the history's queue ops.

    A push is an attempt at its invocation and an ack (carrying the
    seqnum it returned) or a fail at its return; a completed pop is one
    delivery at its return, on the shard its consumer recorded as the
    op's value. Events replay in time order, ties by op id with an op's
    return after its invocation. The history does not record which shard
    a push went to; delivery accounting does not need it.
    """
    monitor = QueueMonitor()
    replay = []
    for op in history.of_kind("queue.push", "queue.pop"):
        if op.kind == "queue.pop":
            if op.status == OK:
                replay.append((op.t_return, op.op_id, 1, monitor.on_pop,
                               (op.key, op.value, op.result)))
            continue
        replay.append((op.t_invoke, op.op_id, 0, monitor.on_push_attempt,
                       (op.key, None, op.value)))
        if op.status == OK:
            replay.append((op.t_return, op.op_id, 1, monitor.on_push_ack,
                           (op.key, None, op.value, op.result)))
        elif op.status == FAIL:
            replay.append((op.t_return, op.op_id, 1, monitor.on_push_fail,
                           (op.key, None, op.value)))
    for *_, tap, args in sorted(replay, key=lambda event: event[:3]):
        tap(*args)
    monitor.finish()
    return monitor.result()


# ----------------------------------------------------------------------
# Metalog: monotonicity + replica/seal consistency
# ----------------------------------------------------------------------
def check_metalog(cluster) -> CheckResult:
    """Every sequencer's stored metalog replicas, judged by
    :class:`MetalogMonitor`.

    Per ``(term, log)`` in key order, the replicas are replayed
    index-major — entry *i* of every replica, in node-name order, before
    entry *i + 1* — so the cross-replica digests stay O(replicas). A
    replica is ended as soon as its entries run out, so a short one
    never holds back the comparison of the long ones.
    """
    by_key = {}
    for qnode in cluster.sequencer_nodes:
        for key, replica in qnode.replicas.items():
            by_key.setdefault(key, []).append((qnode.name, replica.entries_from(0)))
    monitor = MetalogMonitor()
    for (term, log_id), replicas in sorted(by_key.items()):
        replicas.sort(key=lambda named: named[0])
        for i in range(max(len(entries) for _, entries in replicas)):
            for name, entries in replicas:
                if i < len(entries):
                    monitor.on_entry(name, term, log_id, entries[i])
                elif i == len(entries):
                    monitor.on_replica_end(name, term, log_id)
    return monitor.result()
