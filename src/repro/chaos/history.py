"""Global operation history for guarantee checking.

Jepsen-style: every client operation is recorded as an *invoke* at its
start and an *ok*/*fail* completion at its end, with virtual timestamps.
An operation whose client crashed (or that never returned before the run
ended) stays in the ``invoked`` state — indeterminate: it may or may not
have taken effect, and the checkers must accept both possibilities.

Client libraries carry an optional ``history`` attribute (duck-typed
against this class) so recording costs nothing when chaos testing is off.
"""

from __future__ import annotations

import itertools
from math import inf
from typing import Any, List, Optional

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

    def of_kind(self, *kinds: str) -> List[Op]:
        return [op for op in self.ops if op.kind in kinds]

    def __len__(self) -> int:
        return len(self.ops)
