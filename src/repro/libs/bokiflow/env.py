"""BokiFlow's step log: the LogBook (Figure 6a).

What makes the shared protocol (:mod:`repro.libs.bokiflow.protocol`)
BokiFlow: every logged step derives a log tag from ``(workflow_id, step,
suffix)``, appends its record and reads the *first* record carrying the
tag (atomic test-and-append); that record's seqnum is the version its
database write is guarded by. Locks are LogBook state machines
(:mod:`repro.libs.bokiflow.locks`).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core.hashing import log_tag
from repro.core.logbook import LogBook
from repro.faas import FunctionContext
from repro.libs.bokiflow.protocol import WorkflowCrash, WorkflowHandle, WorkflowRuntime
from repro.resil.rpc import INVOKE_POLICY
from repro.sim.network import RpcError, RpcTimeout
from repro.sim.node import NodeDownError

def step_tag(workflow_id: str, step: int, suffix: str = "") -> int:
    """hashLogTag of the Figure 6a pseudocode."""
    return log_tag("bokiflow", (workflow_id, step, suffix))


class WorkflowEnv(WorkflowHandle):
    """The BokiFlow handle: the workflow protocol over a LogBook."""

    def __init__(self, runtime: "BokiFlowRuntime", ctx: FunctionContext, workflow_id: str):
        super().__init__(runtime, ctx, workflow_id)
        self.book: LogBook = runtime.cluster.logbook_for(ctx)

    def log_once(self, suffix: str, data: dict, step: int) -> Generator:
        tag = step_tag(self.workflow_id, step, suffix)
        yield from self.book.append(data, tags=[tag])
        # First record wins: every execution of the step reads this one.
        record = yield from self.book.read_next(tag=tag, min_seqnum=0)
        return record.data, record.seqnum

    def log_mark(self, suffix: str, data: dict, step: int) -> Generator:
        yield from self.book.append(data, tags=[step_tag(self.workflow_id, step, suffix)])

    def logged(self, suffix: str, step: int) -> Generator:
        tag = step_tag(self.workflow_id, step, suffix)
        record = yield from self.book.read_next(tag=tag, min_seqnum=0)
        return record.data if record is not None else None

    # locks.py names this class as its substrate, so it imports this module
    # and can itself only be imported once the class is in use.
    def try_lock(self, key: Any, holder: str) -> Generator:
        from repro.libs.bokiflow.locks import try_lock

        return (yield from try_lock(self, key, holder))

    def unlock(self, key: Any, token) -> Generator:
        from repro.libs.bokiflow.locks import unlock

        yield from unlock(self, key, token)


class BokiFlowRuntime(WorkflowRuntime):
    """Deploys BokiFlow workflow functions onto a Boki cluster."""

    env_class = WorkflowEnv
    #: The client operation (repro.sim.seam): a chaos history records the
    #: resilient driver's logical run, not each attempt.
    WRAP_POINTS = ("run_workflow",)

    def run_workflow(
        self, name: str, arg: Any = None, book_id: int = 0, workflow_id: Optional[str] = None
    ) -> Generator:
        """Resilient driver: re-drive the workflow from its step journal
        when an execution dies mid-commit (Beldi's re-execution model).

        Each re-drive reuses the SAME workflow id, so the step log's
        test-and-append and the idempotent version-guarded writes make
        re-execution exactly-once — the crashed execution's applied
        steps replay as no-ops. Retries, backoff and the retry budget are
        :meth:`repro.resil.Resilience.call`'s; without the cluster's
        resilience layer this degrades to a single attempt, i.e.
        :meth:`start_workflow`.
        """
        workflow_id = workflow_id or self.new_workflow_id()

        def attempt() -> Generator:
            return self.start_workflow(name, arg, book_id=book_id, workflow_id=workflow_id)

        resil = self.cluster.resil
        if resil is None:
            return (yield from attempt())
        return (yield from resil.call(
            attempt, policy=INVOKE_POLICY,
            retry_on=(WorkflowCrash, RpcError, RpcTimeout, NodeDownError),
        ))
