"""BokiStore: durable JSON object storage over a LogBook (§5.2).

Objects are identified by string names; every update is a log record tagged
with the object's tag (so an object re-constructs by replaying only its own
records) and with the global write-stream tag (so transactions can detect
conflicts, Figure 8). Reads replay the log; auxiliary data caches per-record
object views so replay restarts from the most recent cached view instead of
the beginning (§5.4, Figure 9).
"""

from __future__ import annotations

import copy
import functools
import itertools
from typing import Any, Generator, List, Optional, Tuple

from repro.core.hashing import log_tag
from repro.core.logbook import LogBook
from repro.core.types import MAX_SEQNUM, LogRecord, _approx_size
from repro.libs.bokistore.jsonpath import apply_ops, get_path

#: Global stream of all writes + transaction records (conflict detection).
WRITE_STREAM_TAG = log_tag("bokistore", "bokistore-write-stream")

#: Modelled cost of the support library's object (de)serialization: the Go
#: library JSON-decodes the cached view (or replayed updates) on every
#: read, proportional to object size with a small fixed floor. Calibrated
#: against Figure 12b, where a BokiStore non-transactional read of a
#: Retwis object (UserLogin, 1.47 ms) costs roughly 0.9 ms more than the
#: raw LogBook read underneath it (Table 3).
VIEW_DECODE_COST_PER_KB = 0.85e-3
VIEW_DECODE_FLOOR = 0.12e-3

#: CPU cost of applying one replayed update during object reconstruction
#: (JSON op application in the Go library). This is what makes replay
#: length matter: without cached views a read pays this per historical
#: record (Table 5's "optimization disabled" collapse).
REPLAY_CPU_PER_RECORD = 0.1e-3


#: Object names whose tags ``object_tag`` remembers (one sha256 each).
OBJECT_TAG_MEMO = 4096


#: Leaf types ``copy.deepcopy`` returns unchanged, so a read skips it.
ATOMIC = frozenset({str, int, float, bool, type(None)})


@functools.lru_cache(maxsize=OBJECT_TAG_MEMO)
def object_tag(name: str) -> int:
    return log_tag("bokistore", ("obj", name))


class ObjectView:
    """An immutable snapshot of one object (the read result), shared with
    the aux cache: ``get`` and ``as_dict`` return copies."""

    def __init__(self, name: str, data: Optional[dict], seqnum: int):
        self.name = name
        self._data = data
        #: Position of the last record reflected in this view.
        self.seqnum = seqnum

    @property
    def exists(self) -> bool:
        return self._data is not None

    def get(self, path: str, default: Any = None) -> Any:
        if self._data is None:
            return default
        value = get_path(self._data, path, default)
        return value if value is default or type(value) in ATOMIC else copy.deepcopy(value)

    def as_dict(self) -> Optional[dict]:
        return copy.deepcopy(self._data)

    def __repr__(self) -> str:
        return f"<ObjectView {self.name} @{self.seqnum:#x}>"


class BokiStore:
    """A store handle bound to one LogBook."""

    #: The client operations (repro.sim.seam): a chaos history records them.
    WRAP_POINTS = ("put", "get_object")

    def __init__(self, book: LogBook):
        self.book = book
        #: Pluggable aux-data channel: ``aux_get(record)`` and
        #: ``aux_put(seqnum, aux)``, both generators. The Table 5 "AuxData
        #: w/ Redis" variant replaces these with Redis-backed
        #: implementations, its disabled variant with no-ops.
        self.aux_get = self._aux_from_record
        self.aux_put = self._aux_to_book
        self.replayed_records = 0
        #: Ids of this store's transactions, in the order they begin.
        self.txn_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Aux-data plumbing (view caching, §5.4)
    # ------------------------------------------------------------------
    def _aux_from_record(self, record: LogRecord) -> Generator:
        if False:
            yield
        return record.auxdata

    def _aux_to_book(self, seqnum: int, aux: dict) -> Generator:
        yield from self.book.set_auxdata(seqnum, aux)

    def _merged_aux(self, current: Optional[dict], updates: dict) -> dict:
        merged = dict(current) if isinstance(current, dict) else {}
        for key, value in updates.items():
            if key == "view":
                views = dict(merged.get("view", {}))
                views.update(value)
                merged["view"] = views
            else:
                merged[key] = value
        return merged

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def update(self, name: str, ops: List[dict]) -> Generator:
        """Append an object update; returns its seqnum. The new object view
        is cached in the record's auxiliary data (the writer knows the
        resulting state, §5.4) — but only when no concurrent write slipped
        in between our read and our append: Boki trusts applications to
        provide *consistent* aux data (§3), and a view computed from a
        stale base would poison every future read."""
        # The class's method, not the instance's: a chaos history's wrap
        # records the client's reads, not this one.
        view = yield from BokiStore.get_object(self, name)
        new_state = apply_ops(view._data, ops)
        seqnum = yield from self.book.append(
            {"kind": "write", "obj": name, "ops": ops},
            tags=[object_tag(name), WRITE_STREAM_TAG],
        )
        prev = yield from self.book.read_prev(tag=object_tag(name), max_seqnum=seqnum - 1)
        based_on = prev.seqnum if prev is not None else 0
        if based_on == view.seqnum:
            yield from self.aux_put(seqnum, {"view": {name: new_state}})
        # else: a concurrent writer interleaved; readers will replay from
        # the last consistent view and fill the caches correctly.
        return seqnum

    def put(self, name: str, value: dict) -> Generator:
        """Blind full-object write (the KV-style put of §7.3's Cloudburst
        comparison): a ``replace`` op needs no read-before-write because
        the writer knows the resulting state for the aux view."""
        seqnum = yield from self.book.append(
            {"kind": "write", "obj": name, "ops": [{"op": "replace", "value": value}]},
            tags=[object_tag(name), WRITE_STREAM_TAG],
        )
        yield from self.aux_put(seqnum, {"view": {name: copy.deepcopy(value)}})
        return seqnum

    def delete_object(self, name: str) -> Generator:
        """Append a deletion marker; replay treats it as reset-to-missing.
        The GC function trims records of deleted objects (§5.5)."""
        seqnum = yield from self.book.append(
            {"kind": "delete_obj", "obj": name},
            tags=[object_tag(name), WRITE_STREAM_TAG],
        )
        yield from self.aux_put(seqnum, {"view": {name: None}})
        return seqnum

    # ------------------------------------------------------------------
    # Read path: accelerated log replay (Figure 9)
    # ------------------------------------------------------------------
    def get_object(self, name: str, at: int = MAX_SEQNUM) -> Generator:
        """Re-construct the object's state as of seqnum ``at``."""
        tag = object_tag(name)
        tail = yield from self.book.read_prev(tag=tag, max_seqnum=at)
        if tail is None:
            return ObjectView(name, None, 0)
        # Fast path: the tail record has a cached view for this object.
        view = yield from self._view_from_record(tail, name)
        if view is not None:
            yield from self._charge_decode(view[0])
            return ObjectView(name, view[0], tail.seqnum)
        # Common near-tail case: the record just before the tail has a
        # cached view (the tail is a fresh write), so one backward step
        # suffices (Figure 9's seek).
        state: Optional[dict] = None
        replay: List = [tail]
        prev = yield from self.book.read_prev(tag=tag, max_seqnum=tail.seqnum - 1)
        cached = None
        if prev is not None:
            cached = yield from self._view_from_record(prev, name)
        if prev is None:
            pass  # the tail is the object's only record
        elif cached is not None:
            state = cached[0]
        else:
            # Cold path: fetch the whole history in one batched range read
            # and scan backward in memory for the latest cached view.
            records = yield from self.book.read_range(
                tag=tag, min_seqnum=0, max_seqnum=tail.seqnum
            )
            resume = 0
            for i in range(len(records) - 1, -1, -1):
                cached = yield from self._view_from_record(records[i], name)
                if cached is not None:
                    state = cached[0]
                    resume = i + 1
                    break
            replay = records[resume:]
        # Replay forward, filling missing cached views (Figure 9).
        for record in replay:
            state = yield from self._apply_record(state, name, record)
            self.replayed_records += 1
            yield self.book.env.timeout(REPLAY_CPU_PER_RECORD)
            current_aux = yield from self.aux_get(record)
            merged = self._merged_aux(current_aux, {"view": {name: state}})
            yield from self.aux_put(record.seqnum, merged)
        yield from self._charge_decode(state)
        return ObjectView(name, state, tail.seqnum)

    def _charge_decode(self, state: Optional[dict]) -> Generator:
        """Deserializing the object view (library cost; see module doc),
        proportional to the object's size."""
        if state is None:
            return
        size_kb = _approx_size(state) / 1024.0
        cost = max(VIEW_DECODE_FLOOR, VIEW_DECODE_COST_PER_KB * size_kb)
        yield self.book.env.timeout(cost)

    def _view_from_record(self, record: LogRecord, name: str) -> Optional[Tuple[Optional[dict]]]:
        """The cached view of ``name`` on a record, as a 1-tuple (to
        distinguish 'cached None' = deleted from 'not cached'); None when
        absent. For commit records an unresolved outcome means no view."""
        aux = yield from self.aux_get(record)
        if isinstance(aux, dict) and "view" in aux and name in aux["view"]:
            return (aux["view"][name],)
        return None

    def _apply_record(self, state: Optional[dict], name: str, record: LogRecord) -> Generator:
        data = record.data
        kind = data["kind"]
        if kind == "write" and data["obj"] == name:
            return apply_ops(state, data["ops"])
        if kind == "delete_obj" and data["obj"] == name:
            return None
        if kind == "txn_commit" and name in data["writes"]:
            committed = yield from self.resolve_outcome(record)
            if committed:
                return apply_ops(state, data["writes"][name])
            return state
        return state

    # ------------------------------------------------------------------
    # Transaction outcome resolution (Figure 8)
    # ------------------------------------------------------------------
    def resolve_outcome(self, commit_record: LogRecord) -> Generator:
        """Decide a txn_commit's outcome: it commits iff no conflicting
        committed write landed in its conflict window (txn_start,
        txn_commit). The decision is cached in the record's aux data."""
        aux = yield from self.aux_get(commit_record)
        if isinstance(aux, dict) and "outcome" in aux:
            return aux["outcome"]
        data = commit_record.data
        write_set = set(data["writes"])
        start = data["start_seqnum"]
        outcome = True
        window = yield from self.book.read_range(
            tag=WRITE_STREAM_TAG, min_seqnum=start + 1, max_seqnum=commit_record.seqnum - 1
        )
        for record in window:
            rdata = record.data
            if rdata["kind"] == "write" and rdata["obj"] in write_set:
                outcome = False
                break
            if rdata["kind"] == "delete_obj" and rdata["obj"] in write_set:
                outcome = False
                break
            if rdata["kind"] == "txn_commit" and write_set & set(rdata["writes"]):
                # A conflicting commit record: it conflicts only if it
                # itself committed (Figure 8: failed TxnB does not block
                # TxnC).
                other = yield from self.resolve_outcome(record)
                if other:
                    outcome = False
                    break
        current_aux = yield from self.aux_get(commit_record)
        merged = self._merged_aux(current_aux, {"outcome": outcome})
        yield from self.aux_put(commit_record.seqnum, merged)
        return outcome

    # ------------------------------------------------------------------
    # Tail position (read-only transaction snapshots)
    # ------------------------------------------------------------------
    def tail_seqnum(self) -> Generator:
        tail = yield from self.book.check_tail(tag=WRITE_STREAM_TAG)
        return tail.seqnum if tail is not None else 0
