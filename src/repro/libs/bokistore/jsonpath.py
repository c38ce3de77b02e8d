"""Dotted-path operations on JSON objects (the Figure 6c API surface).

BokiStore objects are JSON trees addressed by dotted paths ("a.c"). This
module implements the update operations as pure functions over dicts, plus
the op-application used during log replay — updates are stored in log
records as op descriptors and re-applied deterministically.
"""

from __future__ import annotations

import copy
from typing import Any, List, Optional


class PathError(Exception):
    """A path traversed a non-container or was otherwise invalid."""


def _split(path: str) -> List[str]:
    if not path:
        raise PathError("empty path")
    return path.split(".")


def get_path(obj: dict, path: str, default: Any = None) -> Any:
    node: Any = obj
    for part in _split(path):
        if not isinstance(node, dict) or part not in node:
            return default
        node = node[part]
    return node


def _parent_of(obj: dict, path: str, create: bool) -> tuple:
    parts = _split(path)
    node: Any = obj
    for part in parts[:-1]:
        if not isinstance(node, dict):
            raise PathError(f"{path}: {part!r} is not an object")
        if part not in node:
            if not create:
                raise PathError(f"{path}: missing {part!r}")
            node[part] = {}
        node = node[part]
    if not isinstance(node, dict):
        raise PathError(f"{path}: parent is not an object")
    return node, parts[-1]


def set_path(obj: dict, path: str, value: Any) -> None:
    parent, leaf = _parent_of(obj, path, create=True)
    parent[leaf] = value


def delete_path(obj: dict, path: str) -> None:
    try:
        parent, leaf = _parent_of(obj, path, create=False)
    except PathError:
        return
    parent.pop(leaf, None)


def inc_path(obj: dict, path: str, amount: Any) -> None:
    parent, leaf = _parent_of(obj, path, create=True)
    current = parent.get(leaf, 0)
    if not isinstance(current, (int, float)):
        raise PathError(f"{path}: cannot increment non-number {current!r}")
    parent[leaf] = current + amount


def make_array_path(obj: dict, path: str) -> None:
    parent, leaf = _parent_of(obj, path, create=True)
    if not isinstance(parent.get(leaf), list):
        parent[leaf] = []


def push_array_path(obj: dict, path: str, value: Any) -> None:
    parent, leaf = _parent_of(obj, path, create=True)
    target = parent.get(leaf)
    if target is None:
        target = parent[leaf] = []
    if not isinstance(target, list):
        raise PathError(f"{path}: cannot push onto non-array {target!r}")
    target.append(value)


# ----------------------------------------------------------------------
# Op descriptors (what BokiStore logs)
# ----------------------------------------------------------------------

def apply_op(obj: dict, op: dict) -> None:
    """Apply one logged update op in place."""
    kind = op["op"]
    if kind == "set":
        set_path(obj, op["path"], copy.deepcopy(op["value"]))
    elif kind == "inc":
        inc_path(obj, op["path"], op["value"])
    elif kind == "delete":
        delete_path(obj, op["path"])
    elif kind == "make_array":
        make_array_path(obj, op["path"])
    elif kind == "push":
        push_array_path(obj, op["path"], copy.deepcopy(op["value"]))
    elif kind == "replace":
        obj.clear()
        obj.update(copy.deepcopy(op["value"]))
    else:
        raise PathError(f"unknown op kind {kind!r}")


def apply_ops(obj: Optional[dict], ops: List[dict]) -> dict:
    """Apply ops to a copy of a (possibly missing) object; returns the
    copy. ``obj`` itself is never mutated, so callers may share it."""
    obj = {} if obj is None else copy.deepcopy(obj)
    for op in ops:
        apply_op(obj, op)
    return obj
