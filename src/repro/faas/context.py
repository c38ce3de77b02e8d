"""Per-invocation function context.

The context is the function's handle to the platform: it identifies the
invocation, carries the LogBook binding (``book_id``), and owns the
function's metalog positions. A call sends the child a copy of them and
merges the child's positions back when it returns, so read-your-writes
and monotonic reads hold across function boundaries (§4.4, Figure 5).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional


class FunctionContext:
    """Handle passed to every function invocation.

    Attributes
    ----------
    gateway:
        The gateway that schedules this invocation's children.
    call_id:
        Id of this execution, numbered by the function node that runs it
        (``"func-0#3"``); ``None`` for a context made outside one.
    book_id:
        The LogBook this invocation is bound to (``None`` when the function
        does not use shared logs). Children are bound to the same book.
    positions:
        This invocation's metalog position per log: its own copy of the
        map it was sent. A child gets a copy of it, and the child's map is
        merged back in place by per-log maximum when the child returns.
    tenant:
        The tenant this invocation runs on behalf of (``repro.tenant``);
        ``None`` when tenancy is not enabled. Children inherit it, so a
        whole call tree stays inside one tenant's log space.
    """

    def __init__(
        self,
        node: Any,
        gateway: Any,
        call_id: Optional[str] = None,
        book_id: Optional[int] = None,
        positions: Optional[Dict[int, Any]] = None,
        tenant: Optional[str] = None,
    ):
        self.node = node
        self.gateway = gateway
        self.call_id = call_id
        self.book_id = book_id
        self.positions: Dict[int, Any] = dict(positions or {})
        self.tenant = tenant

    def invoke(self, fn_name: str, arg: Any = None) -> Generator:
        """Invoke a child function on this context's book and wait for its
        result.

        The child is sent a copy of our positions (so its LogBook view is
        at least as fresh as ours); on return, its positions are merged
        into ours in place, so a LogBook handle bound to them keeps
        advancing the map our next child is sent.
        """
        # Imported here: repro.core imports this package.
        from repro.core.types import merge_positions

        result, positions = yield from self.gateway.invoke_from(
            self.node, fn_name, arg, self.book_id, dict(self.positions), self.tenant
        )
        merge_positions(self.positions, positions)
        return result

    def __repr__(self) -> str:
        return f"<FunctionContext call={self.call_id} book={self.book_id}>"
