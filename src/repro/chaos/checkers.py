"""Offline guarantee checkers over recorded histories.

Each checker returns a :class:`CheckResult` with a deterministic,
JSON-serializable list of violations (empty = the guarantee held).

Checkers are conservative in the Jepsen sense: operations that never
completed (client crashed, RPC timed out) are *indeterminate* — they may
or may not have taken effect — and the checkers accept any outcome
consistent with that ambiguity. Only behavior that no interleaving of
indeterminate operations can explain is flagged.
"""

from __future__ import annotations

from collections import Counter
from math import inf
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.chaos.history import History, Op
from repro.obs.monitor import CheckResult, value_key


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
    """No duplicated, no lost effects.

    ``effect_log`` is the database's applied-effect journal (one entry per
    *applied* update carrying an effect id); ``expected_effects`` are the
    effect ids that a completed workflow must have applied. A logical
    effect applied more than once is a duplication (the unsafe baseline's
    failure mode); an expected effect never applied is a lost write.
    """
    entries = list(effect_log)
    counts = Counter(value_key(list(e[0]) if isinstance(e[0], tuple) else e[0])
                     for e in entries)
    violations: List[str] = []
    for eid_key in sorted(counts):
        if counts[eid_key] > 1:
            violations.append(
                f"effect {eid_key} applied {counts[eid_key]} times (duplicate)"
            )
    for eid in expected_effects:
        eid_key = value_key(list(eid) if isinstance(eid, tuple) else eid)
        if counts.get(eid_key, 0) == 0:
            violations.append(f"effect {eid_key} never applied (lost write)")
    return CheckResult("exactly-once-effects", violations, len(entries))


# ----------------------------------------------------------------------
# BokiQueue: no-loss / no-duplicate delivery
# ----------------------------------------------------------------------
def check_queue_delivery(history: History, drained: bool = True) -> CheckResult:
    """Every acknowledged push is delivered exactly once.

    Requires pushed values to be unique (scenarios use sequence-numbered
    payloads). A value popped twice is a duplicate; a value popped but
    never pushed is a phantom; with ``drained=True`` (the scenario popped
    until the queue stayed empty) an acknowledged push never popped is a
    lost message. Unacknowledged pushes may legally surface zero or one
    time.
    """
    pushes = history.of_kind("queue.push")
    pops = [op for op in history.of_kind("queue.pop")
            if op.status == "ok" and op.result is not None]
    ok_pushed = Counter(value_key(op.value) for op in pushes if op.status == "ok")
    maybe_pushed = Counter(value_key(op.value) for op in pushes if op.status != "ok")
    popped = Counter(value_key(op.result) for op in pops)
    violations: List[str] = []
    for val in sorted(popped):
        allowed = ok_pushed.get(val, 0) + maybe_pushed.get(val, 0)
        if allowed == 0:
            violations.append(f"value {val} popped but never pushed (phantom)")
        elif popped[val] > allowed:
            violations.append(
                f"value {val} popped {popped[val]} times "
                f"(pushed at most {allowed}: duplicate delivery)"
            )
    if drained:
        for val in sorted(ok_pushed):
            if popped.get(val, 0) == 0:
                violations.append(f"value {val} acknowledged but never popped (lost)")
    return CheckResult("queue-delivery", violations, len(pushes) + len(pops))


# ----------------------------------------------------------------------
# Metalog: monotonicity + replica/seal consistency
# ----------------------------------------------------------------------
def check_metalog(cluster) -> CheckResult:
    """Invariants over every sequencer's metalog replicas.

    Per replica: contiguous entry indices, monotonically non-decreasing
    progress vectors, and correct ``start_pos`` accounting (each entry's
    start position equals the number of records ordered by all earlier
    entries). Across replicas of the same (term, log): prefix consistency
    — two replicas never disagree on an entry they both store, which is
    what quorum replication plus seal (§4.5) must preserve across
    reconfigurations.
    """
    by_key: Dict[Tuple[int, int], List[Tuple[str, Any]]] = {}
    for qnode in cluster.sequencer_nodes:
        for key, replica in qnode.replicas.items():
            by_key.setdefault(key, []).append((qnode.name, replica))
    violations: List[str] = []
    checked = 0
    for key in sorted(by_key):
        term, log_id = key
        replicas = sorted(by_key[key], key=lambda nr: nr[0])
        for name, replica in replicas:
            entries = replica.entries_from(0)
            checked += len(entries)
            prev_progress: Dict[str, int] = {}
            running_total = 0
            for i, entry in enumerate(entries):
                if entry.index != i:
                    violations.append(
                        f"{name} ({term},{log_id}): entry {i} has index {entry.index}"
                    )
                    break
                progress = entry.progress_dict()
                for shard in sorted(progress):
                    if progress[shard] < prev_progress.get(shard, 0):
                        violations.append(
                            f"{name} ({term},{log_id}) entry {i}: progress for "
                            f"shard {shard} regressed "
                            f"{prev_progress.get(shard, 0)} -> {progress[shard]}"
                        )
                if entry.start_pos != running_total:
                    violations.append(
                        f"{name} ({term},{log_id}) entry {i}: start_pos "
                        f"{entry.start_pos} != records ordered so far {running_total}"
                    )
                running_total += sum(
                    progress.get(s, 0) - prev_progress.get(s, 0)
                    for s in progress
                )
                prev_progress = progress
        # Cross-replica prefix consistency.
        for i in range(len(replicas) - 1):
            name_a, rep_a = replicas[i]
            for name_b, rep_b in replicas[i + 1:]:
                entries_a = rep_a.entries_from(0)
                entries_b = rep_b.entries_from(0)
                for idx in range(min(len(entries_a), len(entries_b))):
                    ea, eb = entries_a[idx], entries_b[idx]
                    if (ea.progress, ea.start_pos, ea.trims) != (
                        eb.progress, eb.start_pos, eb.trims
                    ):
                        violations.append(
                            f"({term},{log_id}) entry {idx}: replicas {name_a} "
                            f"and {name_b} diverge"
                        )
                        break
    return CheckResult("metalog-consistency", violations, checked)
