"""BokiFlow: fault-tolerant serverless workflows on LogBooks (§5.1).

BokiFlow adapts Beldi's techniques — step logging, idempotent database
updates, log-backed locks — to the LogBook API:

- *atomic test-and-append* via log tags: every step appends its record and
  honors the first record carrying the step's tag (Figure 6a);
- *idempotent DB updates* using the step record's seqnum as the written
  version, guarded by a conditional update (Figure 6a);
- *locks* as linearizable replicated state machines via prev-pointer
  chains (Figure 6b / Figure 7), accelerated with auxiliary data (§5.4);
- *transactions* built from locks, two-phase style.

The protocol is written once (:mod:`repro.libs.bokiflow.protocol`) over a
five-method step log; Beldi and the unsafe baseline are other logs under it.
"""

from repro.libs.bokiflow.env import BokiFlowRuntime, WorkflowEnv
from repro.libs.bokiflow.locks import EMPTY_HOLDER, LockState, check_lock_state, try_lock, unlock
from repro.libs.bokiflow.protocol import TxnAbortedError, WorkflowTxn

__all__ = [
    "BokiFlowRuntime",
    "EMPTY_HOLDER",
    "LockState",
    "TxnAbortedError",
    "WorkflowEnv",
    "WorkflowTxn",
    "check_lock_state",
    "try_lock",
    "unlock",
]
