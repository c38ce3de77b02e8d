"""repro.admission — deterministic overload control, end to end.

The admission layer keeps the cluster *useful* under saturating load:
an adaptive concurrency limiter plus deadline-aware early rejection at
the gateway, bounded inflight windows with CoDel-style queue-delay
shedding at engines and storage, backpressure propagating storage ->
engine -> gateway, two priority classes (batch sheds first), and a
retry-after contract with ``repro.resil`` that suppresses retry storms
instead of feeding them. Enable with ``BokiCluster.enable_admission()``;
see ``docs/overload.md`` for the model and its constants.
"""

from repro.admission.controller import WINDOW, AdmissionController, NodeAdmission
from repro.admission.errors import (
    BATCH,
    INTERACTIVE,
    PRIORITIES,
    Overloaded,
    is_overload,
    retry_after_hint,
)
from repro.admission.limiter import AdaptiveLimiter
from repro.admission.window import BoundedWindow, CoDelShedder

__all__ = [
    "AdmissionController",
    "AdaptiveLimiter",
    "BATCH",
    "BoundedWindow",
    "CoDelShedder",
    "INTERACTIVE",
    "NodeAdmission",
    "Overloaded",
    "PRIORITIES",
    "WINDOW",
    "is_overload",
    "retry_after_hint",
]
