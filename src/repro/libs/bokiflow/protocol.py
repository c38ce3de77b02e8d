"""The workflow protocol, written once (§5.1, Figure 6a).

BokiFlow is Beldi's protocol with the logging layer swapped, and Figure 11
compares BokiFlow, Beldi and the unsafe baseline on the same workflows — so
the three share this module and differ only in the **step log** their
handle class supplies, five generator methods:

=============================== ===========================================
``log_once(suffix, data, step)`` atomic test-and-append for ``(workflow,
                                 step, suffix)``; returns ``(first_data,
                                 version)`` of the *first* record logged
``log_mark(suffix, data, step)`` append a marker nobody races on
``logged(suffix, step)``         the first record's data, or None
``try_lock(key, holder)``        a token to hand back to ``unlock``, or None
``unlock(key, token)``           release
=============================== ===========================================

A workflow instance is identified by a workflow id; each of its externally
visible operations is a *step* with a monotonically increasing step number.
A step logs its record and honors the *first* record logged for it — so
during re-execution the original record wins and the step's effects are
not repeated. Database writes are made idempotent by using that record's
version as the item version, applied under a conditional update (Figure
6a's ``rawDBWrite`` with ``Version < rec.seqnum``).

``invoke`` assigns the child a deterministic workflow id logged in the
parent's pre-invoke record, so a re-executed parent re-invokes the child
with the *same* id and the child's own step log deduplicates its effects.
The child's wrapper logs three records (start, result, done), matching the
five-appends-per-invoke cost the paper reports (§7.2: two in the parent,
three in the child).

Transactions are Beldi's too: acquire a lock per touched key, buffer
writes, apply them exactly-once at commit, release the locks. Locks are
acquired in sorted key order (deadlock avoidance); a failed acquisition
aborts the transaction, releasing everything held.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.baselines.dynamodb import ConditionFailedError, DynamoDBClient
from repro.faas import FunctionContext

#: The suffix vocabulary of step records (the GC trims by it).
WRITE, COND = "", "cond"
#: The child-side wrapper logs outside the body's steps, at this step
#: number, under these suffixes.
WRAPPER_STEP = -1
START, RESULT, DONE = "start", "result", "done"


def invoke_suffixes(branch: Optional[int] = None) -> Tuple[str, str]:
    """The (pre, post) suffixes of an invoke step, or of fan-out branch
    ``branch`` of it."""
    mark = "" if branch is None else branch
    return f"pre{mark}", f"post{mark}"


#: Every suffix a step that did not fan out may have logged under.
STEP_SUFFIXES = (WRITE, COND) + invoke_suffixes()


class WorkflowCrash(Exception):
    """Raised by failure-injection hooks to simulate a mid-workflow crash."""


class TxnAbortedError(Exception):
    """The transaction could not acquire a lock (after retries)."""


class WorkflowHandle:
    """Per-invocation workflow handle: the Beldi-compatible API surface.
    A subclass is a system: it adds the five step-log methods."""

    def __init__(self, runtime: "WorkflowRuntime", ctx: FunctionContext, workflow_id: str):
        self.runtime = runtime
        self.ctx = ctx
        self.workflow_id = workflow_id
        self.step = 0
        self.db = DynamoDBClient(runtime.cluster.net, ctx.node)
        self.fault_hook = runtime.fault_hook  # this handle's copy: tests re-aim it mid-body

    def _pre_step(self) -> None:
        if self.fault_hook is not None:
            self.fault_hook(self, self.step)

    # ------------------------------------------------------------------
    # Primitive operations (the Figure 11c microbenchmark set)
    # ------------------------------------------------------------------
    def read(self, table: str, key: Any) -> Generator:
        """Unlogged read; returns the item's Value attribute (or None)."""
        item = yield from self.db.get(table, key)
        return item.get("Value") if item is not None else None

    def write(self, table: str, key: Any, value: Any) -> Generator:
        """Exactly-once write (Figure 6a)."""
        self._pre_step()
        # Honor the first record for this step (test-and-append): its value
        # is what this step writes, now and on every re-execution.
        data, version = yield from self.log_once(
            WRITE, {"op": "write", "table": table, "key": key, "value": value}, self.step
        )
        yield from self._apply(data, version)
        self.step += 1
        return version

    def cond_write(self, table: str, key: Any, value: Any, expected: Any) -> Generator:
        """Conditional write: applies only if the item's current Value
        equals ``expected`` at the step's first execution. The outcome is
        logged so re-executions reproduce it. Returns True if applied."""
        self._pre_step()
        current = yield from self.db.get(table, key)
        outcome = current is not None and current.get("Value") == expected
        data, version = yield from self.log_once(
            COND,
            {"op": "cond_write", "table": table, "key": key, "value": value, "outcome": outcome},
            self.step,
        )
        if data["outcome"]:
            yield from self._apply(data, version)
        self.step += 1
        return data["outcome"]

    def _apply(self, data: dict, version: int) -> Generator:
        """The idempotent database write of a logged step, journaled under
        the step's logical effect id ``(workflow_id, step)``."""
        try:
            yield from self.db.update(
                data["table"],
                data["key"],
                set_attrs={"Value": data["value"], "Version": version},
                condition=("attr_lt_or_absent", "Version", version),
                effect_id=(self.workflow_id, self.step),
            )
        except ConditionFailedError:
            pass  # already applied by a previous execution

    def _invoke_logged(
        self, callee: str, arg: Any, step: int, branch: Optional[int] = None
    ) -> Generator:
        pre, post = invoke_suffixes(branch)
        child_id = f"{self.workflow_id}/{step}"
        if branch is not None:
            child_id += f".{branch}"
        data, _ = yield from self.log_once(pre, {"op": "invoke-pre", "callee_id": child_id}, step)
        request = {"workflow_id": data["callee_id"], "input": arg}
        retval = yield from self.ctx.invoke(callee, request)
        data, _ = yield from self.log_once(post, {"op": "invoke-post", "retval": retval}, step)
        return data["retval"]

    def invoke(self, callee: str, arg: Any = None) -> Generator:
        """Exactly-once child invocation (Figure 6a)."""
        self._pre_step()
        retval = yield from self._invoke_logged(callee, arg, self.step)
        self.step += 1
        return retval

    def invoke_parallel(self, calls) -> Generator:
        """Fan-out: invoke several children concurrently, each with the
        exactly-once protocol, as ONE workflow step. ``calls`` is a list of
        ``(callee, arg)``; returns results in order.

        Each branch logs under its own pre/post suffixes, so re-execution
        re-launches every branch with its original deterministic callee id
        and honors the first logged result — the microservice fan-out
        pattern (e.g. a frontend hitting independent services) without
        serializing on the log."""
        self._pre_step()
        sim = self.runtime.cluster.env
        procs = [
            sim.process(self._invoke_logged(callee, arg, self.step, i), name=f"fanout-{i}")
            for i, (callee, arg) in enumerate(calls)
        ]
        results = []
        for proc in procs:
            results.append((yield proc))
        self.step += 1
        return results


class WorkflowTxn:
    """A transaction within a workflow step sequence.

    Usage::

        txn = WorkflowTxn(env)
        ok = yield from txn.acquire([("flights", fid), ("hotels", hid)])
        if not ok:
            return "unavailable"
        seats = yield from txn.read("flights", fid)
        txn.write("flights", fid, seats - 1)
        yield from txn.commit()      # or yield from txn.abort()
    """

    MAX_LOCK_RETRIES = 3
    RETRY_BACKOFF = 0.002

    def __init__(self, env: WorkflowHandle):
        self.env = env
        self.holder_id = f"{env.workflow_id}/txn@{env.step}"
        self._locks: List[Tuple[Tuple[str, Any], Any]] = []
        self._writes: Dict[Tuple[str, Any], Any] = {}
        self._done = False

    def acquire(self, keys: List[Tuple[str, Any]]) -> Generator:
        """Lock every (table, key); returns False (and releases all) if any
        lock is unavailable after retries."""
        sim = self.env.runtime.cluster.env
        for table_key in sorted(set(keys), key=repr):
            token = None
            for attempt in range(self.MAX_LOCK_RETRIES):
                token = yield from self.env.try_lock(table_key, self.holder_id)
                if token is not None:
                    break
                yield sim.timeout(self.RETRY_BACKOFF * (attempt + 1))
            if token is None:
                yield from self._release_all()
                return False
            self._locks.append((table_key, token))
        return True

    def read(self, table: str, key: Any) -> Generator:
        """Read-through: buffered writes win over the database."""
        if (table, key) in self._writes:
            return self._writes[(table, key)]
        return (yield from self.env.read(table, key))

    def write(self, table: str, key: Any, value: Any) -> None:
        """Buffer a write; applied exactly-once at commit."""
        if self._done:
            raise TxnAbortedError("transaction already finished")
        self._writes[(table, key)] = value

    def commit(self) -> Generator:
        """Apply buffered writes (each an exactly-once logged step), then
        release the locks."""
        if self._done:
            raise TxnAbortedError("transaction already finished")
        for (table, key), value in self._writes.items():
            yield from self.env.write(table, key, value)
        yield from self._release_all()
        self._done = True

    def abort(self) -> Generator:
        if self._done:
            return
        self._writes.clear()
        yield from self._release_all()
        self._done = True

    def _release_all(self) -> Generator:
        for table_key, token in reversed(self._locks):
            yield from self.env.unlock(table_key, token)
        self._locks = []


class WorkflowRuntime:
    """Deploys workflow functions onto a Boki cluster. A subclass names
    its system: the handle class and the prefix of generated ids."""

    env_class = WorkflowHandle
    id_prefix = "wf"

    def __init__(self, cluster):
        self.cluster = cluster
        self._wf_ids = itertools.count(1)
        #: Failure-injection hook handed to every handle: called as
        #: ``hook(env, step)`` before each step, so chaos scenarios can target
        #: specific workflow instances; may raise WorkflowCrash.
        self.fault_hook: Optional[Callable[[WorkflowHandle, int], None]] = None

    def new_workflow_id(self, prefix: Optional[str] = None) -> str:
        return f"{prefix or self.id_prefix}-{next(self._wf_ids)}"

    def register_workflow(self, name: str, body: Callable) -> None:
        """Deploy ``body(env, arg)`` (a generator function) as workflow
        function ``name``. The wrapper provides the child-side exactly-once
        protocol: if the workflow id already has a logged result, the body
        is skipped and the logged result returned."""

        def handler(ctx: FunctionContext, arg: dict) -> Generator:
            workflow_id = arg["workflow_id"]
            env = self.env_class(self, ctx, workflow_id)
            # Log #1: start record (workflow tracked for GC, §5.5).
            yield from env.log_mark(START, {"op": "start", "wf": workflow_id}, WRAPPER_STEP)
            # Replay check: a completed prior execution logged the result.
            prior = yield from env.logged(RESULT, WRAPPER_STEP)
            if prior is not None:
                return prior["retval"]
            retval = yield from body(env, arg.get("input"))
            # Log #2: result record (first one wins).
            record = {"op": "result", "retval": retval}
            data, _ = yield from env.log_once(RESULT, record, WRAPPER_STEP)
            # Log #3: completion marker (GC uses it to find dead logs).
            yield from env.log_mark(DONE, {"op": "done", "wf": workflow_id}, WRAPPER_STEP)
            return data["retval"]

        self.cluster.register_function(name, handler)

    def start_workflow(
        self, name: str, arg: Any = None, book_id: int = 0, workflow_id: Optional[str] = None
    ) -> Generator:
        """Invoke a workflow from the cluster's client node; returns its
        result. Pass the same ``workflow_id`` to re-execute after a crash."""
        workflow_id = workflow_id or self.new_workflow_id()
        result = yield from self.cluster.invoke(
            name, {"workflow_id": workflow_id, "input": arg}, book_id=book_id
        )
        return result
