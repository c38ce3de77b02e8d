"""BokiStore transactions (§5.2, Figure 8).

Following Tango's protocol: a read-write transaction appends a ``txn_start``
record, replays the log only up to that position for its reads (snapshot
isolation), buffers writes, and appends a speculative ``txn_commit`` record
carrying its write set. The commit outcome is decided by log replay: the
transaction commits iff no conflicting committed write lies in its conflict
window. Read-only transactions skip the records entirely: they cache the
log tail at start and read against that snapshot.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Generator, List, Optional

from repro.libs.bokistore.jsonpath import apply_ops, get_path
from repro.libs.bokistore.store import BokiStore, ObjectView, WRITE_STREAM_TAG, object_tag


class TxnObject:
    """An object handle inside a transaction: snapshot reads, buffered
    writes (the Figure 6c API)."""

    def __init__(self, txn: "Transaction", name: str, snapshot: ObjectView):
        self.txn = txn
        self.name = name
        #: Shared with the snapshot until the first buffered write, which
        #: replaces it with ``apply_ops``'s copy.
        self._local: Optional[dict] = snapshot._data

    @property
    def exists(self) -> bool:
        return self._local is not None

    def get(self, path: str, default: Any = None) -> Any:
        if self._local is None:
            return default
        value = get_path(self._local, path, default)
        return value if value is default else copy.deepcopy(value)

    def _buffer(self, op: dict) -> None:
        if self.txn.finished:
            raise RuntimeError("transaction already finished")
        if self.txn.readonly:
            raise RuntimeError("read-only transaction cannot write")
        self.txn._writes.setdefault(self.name, []).append(op)
        self._local = apply_ops(self._local, [op])

    def set(self, path: str, value: Any) -> None:
        self._buffer({"op": "set", "path": path, "value": value})

    def inc(self, path: str, amount: Any = 1) -> None:
        self._buffer({"op": "inc", "path": path, "value": amount})

    def push_array(self, path: str, value: Any) -> None:
        self._buffer({"op": "push", "path": path, "value": value})

    def make_array(self, path: str) -> None:
        self._buffer({"op": "make_array", "path": path})

    def delete_field(self, path: str) -> None:
        self._buffer({"op": "delete", "path": path})


class Transaction:
    """One BokiStore transaction."""

    def __init__(self, store: BokiStore, readonly: bool = False):
        self.store = store
        self.readonly = readonly
        self.txn_id = next(store.txn_ids)
        self.start_seqnum: Optional[int] = None
        self._writes: Dict[str, List[dict]] = {}
        self._objects: Dict[str, TxnObject] = {}
        self.finished = False
        self.committed: Optional[bool] = None

    # ------------------------------------------------------------------
    def begin(self) -> Generator:
        if self.readonly:
            # No records needed: cache the tail as the snapshot (§5.2).
            self.start_seqnum = yield from self.store.tail_seqnum()
        else:
            self.start_seqnum = yield from self.store.book.append(
                {"kind": "txn_start", "txn_id": self.txn_id},
                tags=[WRITE_STREAM_TAG],
            )
        return self

    def get_object(self, name: str) -> Generator:
        if self._snapshot_missing():
            raise RuntimeError("transaction not begun")
        cached = self._objects.get(name)
        if cached is not None:
            return cached
        view = yield from self.store.get_object(name, at=self.start_seqnum)
        obj = TxnObject(self, name, view)
        self._objects[name] = obj
        return obj

    def _snapshot_missing(self) -> bool:
        return self.start_seqnum is None

    # ------------------------------------------------------------------
    def commit(self) -> Generator:
        """Returns True if the transaction committed."""
        if self.finished:
            raise RuntimeError("transaction already finished")
        self.finished = True
        if self.readonly or not self._writes:
            self.committed = True
            return True
        seqnum = yield from self.store.book.append(
            {
                "kind": "txn_commit",
                "txn_id": self.txn_id,
                "start_seqnum": self.start_seqnum,
                "writes": self._writes,
            },
            tags=[object_tag(n) for n in self._writes] + [WRITE_STREAM_TAG],
        )
        record = yield from self.store.book.read_next(
            tag=WRITE_STREAM_TAG, min_seqnum=seqnum
        )
        self.committed = yield from self.store.resolve_outcome(record)
        if self.committed:
            # Cache views of modified objects on the commit record (§5.4:
            # "if the commit succeeds, the auxiliary data also caches a
            # view of modified objects").
            views = {}
            for name, obj in self._objects.items():
                if name in self._writes:
                    views[name] = obj._local
            current_aux = yield from self.store.aux_get(record)
            merged = self.store._merged_aux(record, current_aux, {"view": views})
            yield from self.store.aux_put(record, merged)
        return self.committed

    def abort(self) -> Generator:
        """Abandon: the txn_start record is inert without a commit."""
        if False:
            yield
        self.finished = True
        self.committed = False
