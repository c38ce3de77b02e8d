"""Per-invocation function context.

The context is the function's handle to the platform: it identifies the
invocation, carries the LogBook binding (``book_id``), and transports
*baggage* — small key/value state that children inherit from parents and
parents absorb back from children. Boki uses baggage to propagate each
function's metalog position so read-your-writes and monotonic reads hold
across function boundaries (§4.4, Figure 5).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional


class FunctionContext:
    """Handle passed to every function invocation.

    Attributes
    ----------
    call_id:
        Id of this execution, numbered by the function node that runs it
        (``"func-0#3"``); ``None`` for a context made outside one.
    book_id:
        The LogBook this invocation is bound to (``None`` when the function
        does not use shared logs).
    baggage:
        Mutable dict inherited by child invocations and absorbed back when
        a child returns: the metalog positions map is merged in place by
        per-log maximum, every other key takes the child's value.
    tenant:
        The tenant this invocation runs on behalf of (``repro.tenant``);
        ``None`` when tenancy is not enabled. Children inherit it, so a
        whole call tree stays inside one tenant's log space.
    """

    def __init__(
        self,
        node: Any,
        gateway_invoke: Callable,
        call_id: Optional[str] = None,
        book_id: Optional[int] = None,
        baggage: Optional[Dict[str, Any]] = None,
        parent_id: Optional[str] = None,
        tenant: Optional[str] = None,
    ):
        self.node = node
        self._gateway_invoke = gateway_invoke
        self.call_id = call_id
        self.book_id = book_id
        self.baggage: Dict[str, Any] = dict(baggage or {})
        self.parent_id = parent_id
        self.tenant = tenant

    def invoke(self, fn_name: str, arg: Any = None, book_id: Optional[int] = None) -> Generator:
        """Invoke a child function and wait for its result.

        The child inherits this context's baggage (so e.g. its LogBook view
        is at least as fresh as ours); on return, the child's baggage is
        absorbed back into ours (:meth:`absorb`).
        """
        result, child_baggage = yield from self._gateway_invoke(
            src_node=self.node,
            fn_name=fn_name,
            arg=arg,
            book_id=book_id if book_id is not None else self.book_id,
            baggage=dict(self.baggage),
            parent_id=self.call_id,
            tenant=self.tenant,
        )
        self.absorb(child_baggage)
        return result

    def absorb(self, other_baggage: Dict[str, Any]) -> None:
        """Merge another context's baggage into ours (child return path).

        The positions map is merged into the one we carry rather than
        replaced, so a LogBook handle bound to it before the call keeps
        advancing the map our next child inherits (§4.4)."""
        # Imported here: repro.core imports this package.
        from repro.core.types import BAGGAGE_POSITIONS, merge_positions

        for key, value in other_baggage.items():
            if key == BAGGAGE_POSITIONS and key in self.baggage:
                merge_positions(self.baggage[key], value)
            else:
                self.baggage[key] = value

    def __repr__(self) -> str:
        return f"<FunctionContext call={self.call_id} book={self.book_id}>"
