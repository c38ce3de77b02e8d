"""The coordination server: znode tree, sessions, watches.

Semantics follow ZooKeeper closely enough for Boki's needs:

- znodes are path-keyed blobs with a monotonically increasing version;
- ephemeral znodes are bound to a session and deleted when it expires;
- watches are one-shot triggers on create/update/delete of a path, or on
  membership changes under a path prefix ("children watches");
- sessions expire when no heartbeat arrives within the session timeout,
  which is how Boki detects node failures (§4.2).

The server's state machine is synchronous (handlers are plain functions);
only session-expiry sweeping runs as a background process.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Set

from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.node import Node


class NoNodeError(Exception):
    """The requested znode does not exist."""


class NodeExistsError(Exception):
    """A create collided with an existing znode."""


class BadVersionError(Exception):
    """A conditional set/delete specified a stale version."""


class SessionExpiredError(Exception):
    """The session backing this request has expired."""


@dataclass
class WatchEvent:
    """Delivered to watchers when a watched znode (or prefix) changes."""

    kind: str  # "created" | "changed" | "deleted" | "children"
    path: str
    data: Any = None


@dataclass
class _ZNode:
    data: Any
    version: int = 0
    ephemeral_session: Optional[int] = None


@dataclass
class _Session:
    session_id: int
    owner: str
    timeout: float
    last_heartbeat: float
    ephemerals: Set[str] = field(default_factory=set)
    expired: bool = False


class CoordServer:
    """Hosts the coordination state machine on a simulated node."""

    SWEEP_INTERVAL = 0.5

    def __init__(self, env: Environment, net: Network, node: Node):
        self.env = env
        self.net = net
        self.node = node
        self._tree: Dict[str, _ZNode] = {}
        self._sessions: Dict[int, _Session] = {}
        self._session_ids = itertools.count(1)
        # path -> list of (watcher_node_name, method) one-shot watches
        self._watches: Dict[str, List[str]] = {}
        self._child_watches: Dict[str, List[str]] = {}
        self.expired_sessions: List[int] = []
        self._register_handlers()
        node.spawn(self._sweep_sessions(), name="coord-sweep")

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _register_handlers(self) -> None:
        handlers: Dict[str, Callable] = {
            "coord.create": self._h_create,
            "coord.set": self._h_set,
            "coord.get": self._h_get,
            "coord.delete": self._h_delete,
            "coord.exists": self._h_exists,
            "coord.children": self._h_children,
            "coord.watch": self._h_watch,
            "coord.watch_children": self._h_watch_children,
            "coord.session_create": self._h_session_create,
            "coord.heartbeat": self._h_heartbeat,
            "coord.session_close": self._h_session_close,
        }
        for method, handler in handlers.items():
            self.node.handle(method, handler)

    # ------------------------------------------------------------------
    # Session management
    # ------------------------------------------------------------------
    def _h_session_create(self, payload: dict) -> int:
        session = _Session(
            session_id=next(self._session_ids),
            owner=payload["owner"],
            timeout=payload["timeout"],
            last_heartbeat=self.env.now,
        )
        self._sessions[session.session_id] = session
        return session.session_id

    def _h_heartbeat(self, payload: dict) -> bool:
        session = self._sessions.get(payload["session_id"])
        if session is None or session.expired:
            raise SessionExpiredError(payload["session_id"])
        session.last_heartbeat = self.env.now
        return True

    def _h_session_close(self, payload: dict) -> bool:
        session = self._sessions.get(payload["session_id"])
        if session is None:
            return False
        self._expire(session)
        return True

    def _sweep_sessions(self) -> Generator:
        while True:
            yield self.env.timeout(self.SWEEP_INTERVAL)
            now = self.env.now
            for session in list(self._sessions.values()):
                if not session.expired and now - session.last_heartbeat > session.timeout:
                    self._expire(session)

    def _expire(self, session: _Session) -> None:
        session.expired = True
        self._sessions.pop(session.session_id, None)
        self.expired_sessions.append(session.session_id)
        for path in sorted(session.ephemerals):
            if path in self._tree:
                self._delete_znode(path)

    # ------------------------------------------------------------------
    # znode CRUD
    # ------------------------------------------------------------------
    def _h_create(self, payload: dict) -> int:
        path, data = payload["path"], payload.get("data")
        if path in self._tree:
            raise NodeExistsError(path)
        session_id = payload.get("session_id")
        if payload.get("ephemeral"):
            session = self._sessions.get(session_id)
            if session is None:
                raise SessionExpiredError(session_id)
            session.ephemerals.add(path)
            self._tree[path] = _ZNode(data, ephemeral_session=session_id)
        else:
            self._tree[path] = _ZNode(data)
        self._fire(path, WatchEvent("created", path, data))
        self._fire_children(path)
        return 0

    def _znode(self, payload: dict, check_version: bool = False) -> _ZNode:
        """The znode at ``payload["path"]``; with ``check_version``, also
        the conditional-write check against ``payload["version"]``."""
        path = payload["path"]
        znode = self._tree.get(path)
        if znode is None:
            raise NoNodeError(path)
        expected = payload.get("version") if check_version else None
        if expected is not None and expected != znode.version:
            raise BadVersionError(f"{path}: expected {expected}, have {znode.version}")
        return znode

    def _h_set(self, payload: dict) -> int:
        path = payload["path"]
        znode = self._znode(payload, check_version=True)
        znode.data = payload.get("data")
        znode.version += 1
        self._fire(path, WatchEvent("changed", path, znode.data))
        return znode.version

    def _h_get(self, payload: dict) -> dict:
        znode = self._znode(payload)
        return {"data": znode.data, "version": znode.version}

    def _h_delete(self, payload: dict) -> bool:
        self._znode(payload, check_version=True)
        self._delete_znode(payload["path"])
        return True

    def _delete_znode(self, path: str) -> None:
        znode = self._tree.pop(path)
        if znode.ephemeral_session is not None:
            session = self._sessions.get(znode.ephemeral_session)
            if session is not None:
                session.ephemerals.discard(path)
        self._fire(path, WatchEvent("deleted", path))
        self._fire_children(path)

    def _h_exists(self, payload: dict) -> bool:
        return payload["path"] in self._tree

    def _h_children(self, payload: dict) -> List[str]:
        prefix = payload["path"].rstrip("/") + "/"
        return sorted(p for p in self._tree if p.startswith(prefix))

    # ------------------------------------------------------------------
    # Watches: one-shot, delivered as one-way messages to the watcher node
    # ------------------------------------------------------------------
    def _h_watch(self, payload: dict) -> bool:
        self._watches.setdefault(payload["path"], []).append(payload["watcher"])
        return True

    def _h_watch_children(self, payload: dict) -> bool:
        prefix = payload["path"].rstrip("/") + "/"
        self._child_watches.setdefault(prefix, []).append(payload["watcher"])
        return True

    def _fire(self, path: str, event: WatchEvent) -> None:
        for watcher in self._watches.pop(path, []):
            self.net.send(self.node, watcher, "coord.watch_event", event)

    def _fire_children(self, path: str) -> None:
        for prefix in list(self._child_watches):
            if path.startswith(prefix):
                event = WatchEvent("children", prefix.rstrip("/"))
                for watcher in self._child_watches.pop(prefix):
                    self.net.send(self.node, watcher, "coord.watch_event", event)
