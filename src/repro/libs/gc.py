"""Garbage-collector functions (§5.5).

The FaaS paradigm simplifies GC for shared-log storage: periodically
invoked collector functions reclaim dead records through logTrim. One
collector per support library:

- BokiFlow: trim the step records of completed workflows;
- BokiStore: trim records of deleted objects;
- BokiQueue: trim records of popped queue elements.
"""

from __future__ import annotations

import itertools
from typing import Generator, List

from repro.core.logbook import LogBook
from repro.core.types import MAX_SEQNUM
from repro.libs.bokiflow.env import step_tag
from repro.libs.bokiflow.protocol import (
    DONE, RESULT, START, STEP_SUFFIXES, WRAPPER_STEP, invoke_suffixes,
)
from repro.libs.bokiqueue.queue import BokiQueue, shard_tag
from repro.libs.bokistore.store import BokiStore, object_tag


def gc_workflow(book: LogBook, workflow_id: str, steps: int) -> Generator:
    """Trim a completed workflow's records.

    The collector verifies the workflow logged its completion marker, then
    trims every step tag (including the pre/post invoke tags, and those of
    every fan-out branch) and the start/result markers. The ``done`` marker
    is retained as a tombstone. Returns True if the workflow was trimmed."""
    def trim(step: int, suffix: str) -> Generator:
        yield from book.trim(MAX_SEQNUM, tag=step_tag(workflow_id, step, suffix))

    done_tag = step_tag(workflow_id, WRAPPER_STEP, DONE)
    done = yield from book.read_next(tag=done_tag, min_seqnum=0)
    if done is None:
        return False  # still running (or never ran): not safe to trim
    for suffix in (START, RESULT):
        yield from trim(WRAPPER_STEP, suffix)
    for step in range(steps):
        for suffix in STEP_SUFFIXES:
            yield from trim(step, suffix)
        # A fan-out step logged per branch; every launched branch has a
        # pre record, so walk branches until one is missing.
        for branch in itertools.count():
            pre, post = invoke_suffixes(branch)
            launched = yield from book.read_next(
                tag=step_tag(workflow_id, step, pre), min_seqnum=0
            )
            if launched is None:
                break
            yield from trim(step, pre)
            yield from trim(step, post)
    return True


def gc_deleted_objects(book: LogBook, store: BokiStore, names: List[str]) -> Generator:
    """Trim records of deleted BokiStore objects: everything up to and
    including each object's deletion marker."""
    trimmed = []
    for name in names:
        view = yield from store.get_object(name)
        if view.exists:
            continue  # recreated since deletion: keep
        tail = yield from book.read_prev(tag=object_tag(name), max_seqnum=MAX_SEQNUM)
        if tail is None:
            continue  # nothing left
        if tail.data.get("kind") != "delete_obj":
            continue
        yield from book.trim(tail.seqnum, tag=object_tag(name))
        trimmed.append(name)
    return trimmed


def gc_queue(queue: BokiQueue) -> Generator:
    """Trim records of popped queue elements.

    Replay is deterministic only from an *empty point* — a record after
    which the shard held no pending pushes — because a pop record replayed
    without the (older) push it matched would steal a newer one. So the
    collector scans each shard from its current start (an empty point by
    induction: we only ever trim at empty points), finds the latest record
    at which the shard was empty, and trims up to it."""
    trimmed_upto = []
    for shard in range(queue.num_shards):
        from repro.libs.bokiqueue.queue import _ShardState

        tag = shard_tag(queue.name, shard)
        records = yield from queue.book.read_range(tag=tag)
        state = _ShardState()
        last_empty = None
        for record in records:
            state.apply(record)
            if not state.pending:
                last_empty = record.seqnum
        if last_empty is not None:
            yield from queue.book.trim(last_empty, tag=tag)
        trimmed_upto.append(last_empty)
    return trimmed_upto
