"""The BokiFlow workflow environment (Figure 6a).

A workflow instance is identified by a workflow id; each of its externally
visible operations is a *step* with a monotonically increasing step number.
Every step derives a log tag from ``(workflow_id, step)``: the step appends
its record and then reads the *first* record carrying the tag — so during
re-execution the original record wins and the step's effects are not
repeated (atomic test-and-append).

Database writes are made idempotent by using the step record's seqnum as
the item version, applied under a conditional update (Figure 6a's
``rawDBWrite`` with ``Version < rec.seqnum``).

``invoke`` assigns the child a deterministic workflow id logged in the
parent's pre-invoke record, so a re-executed parent re-invokes the child
with the *same* id and the child's own step log deduplicates its effects.
The child's wrapper logs three records (start, result, done), matching the
five-appends-per-invoke cost the paper reports (§7.2: two in the parent,
three in the child).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Generator, Optional

from repro.baselines.dynamodb import ConditionFailedError, DynamoDBClient
from repro.core.cluster import BokiCluster
from repro.core.hashing import stable_hash
from repro.core.logbook import LogBook
from repro.faas import FunctionContext

#: Tag-space guard: tags must be nonzero (0 is the implicit all-records tag).
_TAG_MOD = (1 << 61) - 1


def step_tag(workflow_id: str, step: int, suffix: str = "") -> int:
    """hashLogTag of the Figure 6a pseudocode."""
    return stable_hash((workflow_id, step, suffix), salt="bokiflow") % _TAG_MOD + 1


class WorkflowCrash(Exception):
    """Raised by failure-injection hooks to simulate a mid-workflow crash."""


class WorkflowEnv:
    """Per-invocation workflow handle: the Beldi-compatible API surface."""

    def __init__(
        self,
        runtime: "BokiFlowRuntime",
        ctx: FunctionContext,
        workflow_id: str,
    ):
        self.runtime = runtime
        self.ctx = ctx
        self.workflow_id = workflow_id
        self.step = 0
        self.book: LogBook = runtime.cluster.logbook_for(ctx)
        self.db = DynamoDBClient(runtime.cluster.net, ctx.node, runtime.db_service)
        #: Failure-injection hook: called before each step with the step
        #: number; may raise WorkflowCrash.
        self.fault_hook: Optional[Callable[[int], None]] = runtime.fault_hook

    def _pre_step(self) -> None:
        # The env-aware hook (repro.chaos) sees which workflow is at which
        # step; the plain hook keeps the original (step-only) signature.
        if self.runtime.fault_hook_env is not None:
            self.runtime.fault_hook_env(self, self.step)
        elif self.fault_hook is not None:
            self.fault_hook(self.step)

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
        tag = step_tag(self.workflow_id, self.step)
        effect_id = (self.workflow_id, self.step)
        yield from self.book.append(
            {"op": "write", "table": table, "key": key, "value": value}, tags=[tag]
        )
        record = yield from self.book.read_next(tag=tag, min_seqnum=0)
        # Honor the first record for this step (test-and-append): its value
        # is what this step writes, now and on every re-execution.
        yield from self._idempotent_db_write(
            record.data["table"], record.data["key"], record.data["value"], record.seqnum,
            effect_id=effect_id,
        )
        self.step += 1
        return record.seqnum

    def cond_write(self, table: str, key: Any, value: Any, expected: Any) -> Generator:
        """Conditional write: applies only if the item's current Value
        equals ``expected`` at the step's first execution. The outcome is
        logged so re-executions reproduce it. Returns True if applied."""
        self._pre_step()
        tag = step_tag(self.workflow_id, self.step, "cond")
        current = yield from self.db.get(table, key)
        outcome = current is not None and current.get("Value") == expected
        yield from self.book.append(
            {
                "op": "cond_write",
                "table": table,
                "key": key,
                "value": value,
                "outcome": outcome,
            },
            tags=[tag],
        )
        record = yield from self.book.read_next(tag=tag, min_seqnum=0)
        if record.data["outcome"]:
            yield from self._idempotent_db_write(
                record.data["table"], record.data["key"], record.data["value"], record.seqnum,
                effect_id=(self.workflow_id, self.step),
            )
        self.step += 1
        return record.data["outcome"]

    def _idempotent_db_write(
        self, table: str, key: Any, value: Any, seqnum: int, effect_id: Any = None
    ) -> Generator:
        try:
            yield from self.db.update(
                table,
                key,
                set_attrs={"Value": value, "Version": seqnum},
                condition=("attr_lt_or_absent", "Version", seqnum),
                effect_id=effect_id,
            )
        except ConditionFailedError:
            pass  # already applied by a previous execution

    def invoke(self, callee: str, arg: Any = None) -> Generator:
        """Exactly-once child invocation (Figure 6a)."""
        self._pre_step()
        tag_pre = step_tag(self.workflow_id, self.step, "pre")
        callee_id = f"{self.workflow_id}/{self.step}"
        yield from self.book.append({"op": "invoke-pre", "callee_id": callee_id}, tags=[tag_pre])
        record = yield from self.book.read_next(tag=tag_pre, min_seqnum=0)
        callee_id = record.data["callee_id"]
        retval = yield from self.ctx.invoke(
            callee, {"workflow_id": callee_id, "input": arg}
        )
        tag_post = step_tag(self.workflow_id, self.step, "post")
        yield from self.book.append({"op": "invoke-post", "retval": retval}, tags=[tag_post])
        record = yield from self.book.read_next(tag=tag_post, min_seqnum=0)
        self.step += 1
        return record.data["retval"]

    def invoke_parallel(self, calls) -> Generator:
        """Fan-out: invoke several children concurrently, each with the
        exactly-once protocol, as ONE workflow step. ``calls`` is a list of
        ``(callee, arg)``; returns results in order.

        Each branch gets its own pre/post tags derived from
        ``(workflow_id, step, branch)``, so re-execution re-launches every
        branch with its original deterministic callee id and honors the
        first logged result — the microservice fan-out pattern (e.g. a
        frontend hitting independent services) without serializing on the
        log."""
        self._pre_step()
        step = self.step
        sim = self.runtime.cluster.env

        def branch(i: int, callee: str, arg: Any) -> Generator:
            tag_pre = step_tag(self.workflow_id, step, f"pre{i}")
            callee_id = f"{self.workflow_id}/{step}.{i}"
            yield from self.book.append(
                {"op": "invoke-pre", "callee_id": callee_id}, tags=[tag_pre]
            )
            record = yield from self.book.read_next(tag=tag_pre, min_seqnum=0)
            callee_id = record.data["callee_id"]
            retval = yield from self.ctx.invoke(
                callee, {"workflow_id": callee_id, "input": arg}
            )
            tag_post = step_tag(self.workflow_id, step, f"post{i}")
            yield from self.book.append(
                {"op": "invoke-post", "retval": retval}, tags=[tag_post]
            )
            record = yield from self.book.read_next(tag=tag_post, min_seqnum=0)
            return record.data["retval"]

        procs = [
            sim.process(branch(i, callee, arg), name=f"fanout-{i}")
            for i, (callee, arg) in enumerate(calls)
        ]
        results = []
        for proc in procs:
            results.append((yield proc))
        self.step += 1
        return results

    # ------------------------------------------------------------------
    # Raw escapes (used by the unsafe baseline comparisons and tests)
    # ------------------------------------------------------------------
    def raw_db_write(self, table: str, key: Any, value: Any) -> Generator:
        yield from self.db.update(table, key, set_attrs={"Value": value})


class BokiFlowRuntime:
    """Deploys BokiFlow workflow functions onto a Boki cluster."""

    def __init__(self, cluster: BokiCluster, db_service: str = "dynamodb"):
        self.cluster = cluster
        self.db_service = db_service
        self._wf_ids = itertools.count(1)
        self.fault_hook: Optional[Callable[[int], None]] = None
        #: Env-aware failure hook: called as ``hook(env, step)`` before
        #: each step (takes precedence over ``fault_hook``), so chaos
        #: scenarios can target specific workflow instances.
        self.fault_hook_env: Optional[Callable[["WorkflowEnv", int], None]] = None
        #: Optional repro.chaos history recorder + client name for the
        #: resilient driver's logical ``flow.run`` operations.
        self.history = None
        self.client_name = "flow"

    def new_workflow_id(self, prefix: str = "wf") -> str:
        return f"{prefix}-{next(self._wf_ids)}"

    def register_workflow(self, name: str, body: Callable) -> None:
        """Deploy ``body(env, arg)`` (a generator function) as workflow
        function ``name``. The wrapper provides the child-side exactly-once
        protocol: if the workflow id already has a logged result, the body
        is skipped and the logged result returned."""

        def handler(ctx: FunctionContext, arg: dict) -> Generator:
            workflow_id = arg["workflow_id"]
            env = WorkflowEnv(self, ctx, workflow_id)
            start_tag = step_tag(workflow_id, -1, "start")
            result_tag = step_tag(workflow_id, -1, "result")
            done_tag = step_tag(workflow_id, -1, "done")
            # Append #1: start record (workflow tracked for GC, §5.5).
            yield from env.book.append({"op": "start", "wf": workflow_id}, tags=[start_tag])
            # Replay check: a completed prior execution logged the result.
            prior = yield from env.book.read_next(tag=result_tag, min_seqnum=0)
            if prior is not None:
                return prior.data["retval"]
            retval = yield from body(env, arg.get("input"))
            # Append #2: result record (first one wins).
            yield from env.book.append({"op": "result", "retval": retval}, tags=[result_tag])
            record = yield from env.book.read_next(tag=result_tag, min_seqnum=0)
            # Append #3: completion marker (GC uses it to find dead logs).
            yield from env.book.append({"op": "done", "wf": workflow_id}, tags=[done_tag])
            return record.data["retval"]

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

    def run_workflow(
        self,
        name: str,
        arg: Any = None,
        book_id: int = 0,
        workflow_id: Optional[str] = None,
        policy=None,
    ) -> Generator:
        """Resilient driver: re-drive the workflow from its step journal
        when an execution dies mid-commit (Beldi's re-execution model).

        Each re-drive reuses the SAME workflow id, so the step log's
        test-and-append and the idempotent version-guarded writes make
        re-execution exactly-once — the crashed execution's applied
        steps replay as no-ops. Without the cluster's resilience layer
        (and no explicit ``policy``) this degrades to a single attempt,
        i.e. :meth:`start_workflow`.
        """
        from repro.sim.network import RpcError, RpcTimeout
        from repro.sim.node import NodeDownError

        workflow_id = workflow_id or self.new_workflow_id()
        resil = getattr(self.cluster, "resil", None)
        if policy is None and resil is not None:
            policy = resil.invoke_policy
        history = self.history
        op = None
        if history is not None:
            op = history.invoke(self.client_name, "flow.run", workflow_id, arg)
        attempt = 0
        if resil is not None:
            resil.budget.on_attempt()
        while True:
            try:
                result = yield from self.start_workflow(
                    name, arg, book_id=book_id, workflow_id=workflow_id
                )
            except (WorkflowCrash, RpcError, RpcTimeout, NodeDownError) as exc:
                retry = policy is not None and policy.should_retry(exc, attempt)
                if retry and resil is not None and not resil.budget.try_spend():
                    retry = False
                if not retry:
                    if op is not None:
                        history.fail(op, type(exc).__name__)
                    raise
                if resil is not None:
                    resil.counters["retries"] += 1
                    rng = resil.jitter_rng()
                else:
                    rng = self.cluster.streams.stream("resil-jitter")
                yield self.cluster.env.timeout(policy.backoff(attempt, rng))
                attempt += 1
                continue
            if op is not None:
                history.ok(op, result)
            return result
