"""The unsafe baseline: workflows with no logging (§7.2).

"Unsafe baseline refers to running workflows without Beldi's techniques,
where it cannot guarantee exactly-once semantics or support transactions."
Every operation maps to its bare cost: a write is one DynamoDB update, an
invoke is a plain function call. Used as the lower bound in Figure 11.

It runs the same protocol (:mod:`repro.libs.bokiflow.protocol`) over a
step log that remembers nothing and costs nothing — no log method yields
a kernel event — so every step is always "first", every lock is free,
and a transaction gives neither isolation nor atomicity.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.libs.bokiflow.protocol import WorkflowHandle, WorkflowRuntime


class UnsafeEnv(WorkflowHandle):
    """The unsafe handle: the workflow protocol over no log at all (the
    unreachable ``yield`` makes each method a generator that yields no
    event)."""

    def log_once(self, suffix: str, data: dict, step: int) -> Generator:
        return data, None
        yield

    def log_mark(self, suffix: str, data: dict, step: int) -> Generator:
        return
        yield

    def logged(self, suffix: str, step: int) -> Generator:
        return None
        yield

    def try_lock(self, key: Any, holder: str) -> Generator:
        return holder
        yield

    def unlock(self, key: Any, holder: str) -> Generator:
        return
        yield

    def _apply(self, data: dict, version: None) -> Generator:
        # Same logical effect identity as the logged systems' write, but
        # applied with a plain (unconditional) update: a re-executed workflow
        # re-applies the effect — the duplication the chaos checkers catch.
        yield from self.db.update(
            data["table"], data["key"], set_attrs={"Value": data["value"]},
            effect_id=(self.workflow_id, self.step),
        )


class UnsafeRuntime(WorkflowRuntime):
    env_class = UnsafeEnv
    id_prefix = "unsafe"
