"""Beldi baseline: workflow logging via DynamoDB's linked DAAL (§7.2).

Beldi builds an atomic logging layer *inside* DynamoDB: every logged step
is a conditional put into a log table (the atomic test-and-append), plus an
update to the workflow's linked-DAAL structure — two DynamoDB round trips
per log append. That cost structure is exactly what the paper measures:
Beldi's Invoke does 5 log appends like BokiFlow's, but each append pays
multiple DynamoDB updates, giving 19 ms vs BokiFlow's 3.8 ms (Figure 11c).

The workflow protocol is BokiFlow's (:mod:`repro.libs.bokiflow.protocol`);
this module is only Beldi's step log, so the movie/travel workloads run
unchanged on either system.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.baselines.dynamodb import ConditionFailedError
from repro.libs.bokiflow.protocol import WorkflowHandle, WorkflowRuntime

LOG_TABLE = "beldi-log"
DAAL_TABLE = "beldi-daal"
LOCK_TABLE = "beldi-locks"
EMPTY_HOLDER = ""


class BeldiEnv(WorkflowHandle):
    """The Beldi handle: the workflow protocol over the linked DAAL."""

    def _log_key(self, suffix: str, step: int) -> str:
        return f"{self.workflow_id}/{step}/{suffix}"

    def log_once(self, suffix: str, data: dict, step: int) -> Generator:
        log_key = self._log_key(suffix, step)
        # Round trip 1: bump the DAAL tail pointer; the returned counter is
        # this append's (potential) version.
        daal = yield from self.db.update(DAAL_TABLE, self.workflow_id, add_attrs={"tail": 1})
        version = daal["tail"]
        # Round trip 2: conditional put — first writer wins.
        try:
            yield from self.db.put(
                LOG_TABLE, log_key, {"data": data, "version": version}, condition=("absent",)
            )
            return data, version
        except ConditionFailedError:
            existing = yield from self.db.get(LOG_TABLE, log_key)
            return existing["data"], existing["version"]

    #: Beldi has no cheaper append than the test-and-append.
    log_mark = log_once

    def logged(self, suffix: str, step: int) -> Generator:
        existing = yield from self.db.get(LOG_TABLE, self._log_key(suffix, step))
        return existing["data"] if existing is not None else None

    # ------------------------------------------------------------------
    # Locks: DynamoDB conditional updates ("test-and-set" in the database)
    # ------------------------------------------------------------------
    def try_lock(self, key: Any, holder: str) -> Generator:
        lock_key = f"lock/{key!r}"
        try:
            yield from self.db.update(
                LOCK_TABLE,
                lock_key,
                set_attrs={"holder": holder},
                condition=("attr_eq", "holder", EMPTY_HOLDER),
            )
            return holder
        except ConditionFailedError:
            pass
        try:
            yield from self.db.put(LOCK_TABLE, lock_key, {"holder": holder}, condition=("absent",))
            return holder
        except ConditionFailedError:
            return None

    def unlock(self, key: Any, holder: str) -> Generator:
        try:
            yield from self.db.update(
                LOCK_TABLE,
                f"lock/{key!r}",
                set_attrs={"holder": EMPTY_HOLDER},
                condition=("attr_eq", "holder", holder),
            )
        except ConditionFailedError:
            pass  # not ours (double release after re-execution)


class BeldiRuntime(WorkflowRuntime):
    """Deploys Beldi workflow functions."""

    env_class = BeldiEnv
    id_prefix = "beldi"
