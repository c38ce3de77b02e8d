"""BokiStore: durable object storage for stateful functions (§5.2).

JSON objects over a LogBook, with cross-object transactions (Tango's
protocol) and auxiliary-data accelerated log replay (§5.4). Motivated by
Cloudflare's Durable Objects, but more powerful: transactions span objects.

Example::

    store = BokiStore(book)
    yield from store.update("x", [{"op": "set", "path": "a.c", "value": "bar"}])
    view = yield from store.get_object("x")
    view.get("a.c")  # "bar"

    txn = yield from Transaction(store).begin()
    alice = yield from txn.get_object("alice")
    if alice.get("balance") > 10:
        alice.inc("balance", -10)
    ok = yield from txn.commit()
"""

from repro.libs.bokistore.jsonpath import PathError, apply_op, apply_ops, get_path, set_path
from repro.libs.bokistore.store import BokiStore, ObjectView, WRITE_STREAM_TAG, object_tag
from repro.libs.bokistore.structures import (
    DurableCounter,
    DurableList,
    DurableMap,
    DurableRegister,
)
from repro.libs.bokistore.txn import Transaction, TxnObject

__all__ = [
    "BokiStore",
    "DurableCounter",
    "DurableList",
    "DurableMap",
    "DurableRegister",
    "ObjectView",
    "PathError",
    "Transaction",
    "TxnObject",
    "WRITE_STREAM_TAG",
    "apply_op",
    "apply_ops",
    "get_path",
    "object_tag",
    "set_path",
]
