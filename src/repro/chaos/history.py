"""Global operation history for guarantee checking.

Jepsen-style: every client operation is recorded as an *invoke* at its
start and an *ok*/*fail* completion at its end, with virtual timestamps.
An operation whose client crashed (or that never returned before the run
ended) stays in the ``invoked`` state — indeterminate: it may or may not
have taken effect, and the checkers must accept both possibilities.

One generator records an operation, :meth:`History.record`, around the
call that performs it. Scenario clients call it around a gateway
invocation; :meth:`History.watch` puts it on a support-library object's
declared ``WRAP_POINTS`` under the seam's ``chaos`` layer
(:mod:`repro.sim.seam`), so the libraries know nothing of histories and
an unwatched object costs nothing.
"""

from __future__ import annotations

import itertools
from math import inf
from typing import Any, Callable, Generator, List, Optional

from repro.core.types import MAX_SEQNUM
from repro.sim.seam import wrap

#: Operation states (Jepsen's :invoke / :ok / :fail).
INVOKED = "invoked"
OK = "ok"
FAIL = "fail"


class Op:
    """One client operation's lifecycle."""

    __slots__ = (
        "op_id", "client", "kind", "key", "value",
        "t_invoke", "t_return", "status", "result", "error",
    )

    def __init__(self, op_id: int, client: str, kind: str, key: str,
                 value: Any, t_invoke: float):
        self.op_id = op_id
        self.client = client
        self.kind = kind          # e.g. "store.put", "queue.pop"
        self.key = key            # object name / queue name / workflow id
        self.value = value        # argument (what a write writes)
        self.t_invoke = t_invoke
        self.t_return = inf       # finite once completed
        self.status = INVOKED
        self.result = None        # what the operation returned
        self.error = None

    def to_dict(self) -> dict:
        return {
            "op_id": self.op_id,
            "client": self.client,
            "kind": self.kind,
            "key": self.key,
            "value": self.value,
            "t_invoke": self.t_invoke,
            "t_return": None if self.t_return == inf else self.t_return,
            "status": self.status,
            "result": self.result,
            "error": self.error,
        }

    def __repr__(self) -> str:
        return f"<Op {self.op_id} {self.client} {self.kind}({self.key}) {self.status}>"


#: Per wrap point of a support library: how a call describes its op,
#: ``(kind, key, value)`` from ``(component, *args)`` — None when the call
#: is not a client operation — and the part of the return value the op
#: keeps as its result (None: all of it).
OPS = {
    "put": (lambda store, name, value: ("store.put", name, value), None),
    # A read at a snapshot (a read-only transaction's) is not an op.
    "get_object": (lambda store, name, at=MAX_SEQNUM:
                   ("store.get", name, None) if at == MAX_SEQNUM else None,
                   lambda view: view.as_dict()),
    "push": (lambda producer, value: ("queue.push", producer.queue.name, value),
             None),
    # A pop takes no argument: its value records the consumer's shard,
    # which the offline delivery check orders by.
    "pop": (lambda consumer: ("queue.pop", consumer.queue.name, consumer.shard),
            None),
    # Keyed by the caller's workflow id: describing the call must not draw
    # one from ``new_workflow_id()``.
    "run_workflow": (lambda runtime, name, arg=None, book_id=0, workflow_id=None:
                     ("flow.run", workflow_id, arg), None),
}


class History:
    """Append-only operation log with virtual timestamps."""

    def __init__(self, env):
        self.env = env
        self.ops: List[Op] = []
        self._ids = itertools.count(1)

    def invoke(self, client: str, kind: str, key: str, value: Any = None) -> Op:
        op = Op(next(self._ids), client, kind, key, value, self.env.now)
        self.ops.append(op)
        return op

    def ok(self, op: Op, result: Any = None) -> Op:
        op.status = OK
        op.result = result
        op.t_return = self.env.now
        return op

    def fail(self, op: Op, error: Optional[str] = None) -> Op:
        # A failed operation is still *indeterminate* for writes: an RPC
        # timeout does not prove the append never landed. Checkers treat
        # fail like invoked (may or may not have taken effect).
        op.status = FAIL
        op.error = error
        op.t_return = self.env.now
        return op

    def record(self, client: str, kind: str, key: str, value: Any,
               call: Generator,
               result_of: Optional[Callable[[Any], Any]] = None) -> Generator:
        """Drive ``call`` as one operation of ``client``: invoked when this
        generator starts, ``ok`` with what ``call`` returns (passed through
        ``result_of`` when given), ``fail`` with the exception's type name
        when it raises — the exception still reaches the caller."""
        op = self.invoke(client, kind, key, value)
        try:
            result = yield from call
        except BaseException as exc:
            self.fail(op, type(exc).__name__)
            raise
        self.ok(op, result if result_of is None else result_of(result))
        return result

    def watch(self, component, client: str):
        """Record every call of ``component``'s wrap points (see
        :data:`OPS`) as an operation of ``client``; returns ``component``.
        Watching one object twice raises the seam's ``ValueError``."""
        for point in type(component).WRAP_POINTS:
            describe, result_of = OPS[point]
            wrap(component, point,
                 self._recorder(component, client, describe, result_of), "chaos")
        return component

    def _recorder(self, component, client: str, describe, result_of):
        def wrapper(inner):
            def recorded(*args, **kwargs):
                op = describe(component, *args, **kwargs)
                if op is None:
                    return (yield from inner(*args, **kwargs))
                return (yield from self.record(
                    client, *op, inner(*args, **kwargs), result_of))
            return recorded
        return wrapper

    def of_kind(self, *kinds: str) -> List[Op]:
        return [op for op in self.ops if op.kind in kinds]

    def __len__(self) -> int:
        return len(self.ops)
