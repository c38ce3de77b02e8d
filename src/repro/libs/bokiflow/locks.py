"""BokiFlow locks: linearizable registers over the LogBook (Figure 6b/7).

The LogBook API has no conditional append, so a "test-and-set" cannot be
linearized directly. BokiFlow's solution: every proposed lock-state update
carries the log position (``prev``) of the state-machine tail it observed.
On replay, an update is accepted only if its ``prev`` equals the current
chain tail's seqnum — the *first* of any concurrently proposed updates
wins, and the total order of the log linearizes the rest away (Figure 7's
implicit chain).

Auxiliary data accelerates ``checkLockState``: each lock record's aux slot
caches the chain tail as of that record, so replay restarts from the most
recent record with a cached tail instead of the beginning (§5.4, Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.core.hashing import log_tag
from repro.libs.bokiflow.env import WorkflowEnv

EMPTY_HOLDER = ""


def lock_tag(key: Any) -> int:
    return log_tag("bokiflow-lock", ("lock", key))


@dataclass
class LockState:
    """The chain tail: the lock's current state."""

    holder: str
    seqnum: int  # seqnum of the chain-tail record


def check_lock_state(env: WorkflowEnv, key: Any) -> Generator:
    """Replay the lock's log to find the chain tail (Figure 6b's
    ``checkLockState``), using aux-cached tails to skip replay (Figure 9).

    Returns a :class:`LockState` or None if the lock has no records."""
    tag = lock_tag(key)
    tail_record = yield from env.book.check_tail(tag=tag)
    if tail_record is None:
        return None
    if tail_record.auxdata is not None:
        cached = tail_record.auxdata
        return LockState(holder=cached["holder"], seqnum=cached["tail_seqnum"])
    # Walk backward to the most recent record with a cached tail.
    replay_from = 0
    chain: Optional[LockState] = None
    cursor = tail_record.seqnum
    while True:
        record = yield from env.book.read_prev(tag=tag, max_seqnum=cursor)
        if record is None:
            break
        if record.auxdata is not None:
            chain = LockState(
                holder=record.auxdata["holder"], seqnum=record.auxdata["tail_seqnum"]
            )
            replay_from = record.seqnum + 1
            break
        if record.seqnum == 0:
            break
        cursor = record.seqnum - 1
    # Replay forward applying the chain rule; fill in missing aux views.
    records = yield from env.book.read_range(tag=tag, min_seqnum=replay_from)
    for record in records:
        # Figure 6b's chain rule: the first record is always accepted;
        # afterwards only updates chained on the current tail are.
        accepted = chain is None or record.data["prev"] == chain.seqnum
        if accepted:
            chain = LockState(holder=record.data["holder"], seqnum=record.seqnum)
        if record.auxdata is None and chain is not None:
            yield from env.book.set_auxdata(
                record.seqnum, {"holder": chain.holder, "tail_seqnum": chain.seqnum}
            )
    return chain


def try_lock(env: WorkflowEnv, key: Any, holder_id: str) -> Generator:
    """Attempt to acquire; returns the winning LockState (keep it for
    unlock) or None if the lock is held (Figure 6b's ``tryLock``)."""
    tag = lock_tag(key)
    state = yield from check_lock_state(env, key)
    if state is not None and state.holder != EMPTY_HOLDER:
        return None  # held by someone else
    prev = state.seqnum if state is not None else 0
    yield from env.book.append({"holder": holder_id, "prev": prev}, tags=[tag])
    state = yield from check_lock_state(env, key)
    if state is not None and state.holder == holder_id:
        return state  # we are the chain tail: lock acquired
    return None  # a concurrent proposal won


def unlock(env: WorkflowEnv, key: Any, lock_state: LockState) -> Generator:
    """Release: append the EMPTY update chained after our acquire record."""
    tag = lock_tag(key)
    yield from env.book.append(
        {"holder": EMPTY_HOLDER, "prev": lock_state.seqnum}, tags=[tag]
    )
    # Refresh aux caching for the release record.
    yield from check_lock_state(env, key)
