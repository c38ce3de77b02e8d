"""Per-node coordination client: session keepalive, CRUD, leader election.

Every Boki node holds a :class:`CoordClient`. The client maintains a session
with heartbeats; if the owning node crashes the heartbeats stop and the
server expires the session, deleting the node's ephemeral znodes — which is
exactly how Boki's controller observes node failures (§4.2, §4.5).

All client operations are generator functions consumed with ``yield from``
inside a simulation process::

    info = yield from client.get("/config")
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from repro.sim.kernel import Environment, Interrupt
from repro.sim.network import Network, RpcError, RpcTimeout
from repro.sim.node import Node
from repro.coord.server import NodeExistsError, WatchEvent

#: The node the coordination server runs on.
SERVER_NAME = "coord"
SESSION_TIMEOUT = 2.0
HEARTBEAT_INTERVAL = 0.5


class CoordClient:
    """Client handle bound to one node; all calls go over the network."""

    def __init__(self, env: Environment, net: Network, node: Node):
        self.env = env
        self.net = net
        self.node = node
        self.session_id: Optional[int] = None
        self._watch_handlers: List[Callable[[WatchEvent], None]] = []
        node.handle("coord.watch_event", self._on_watch_event)

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def start_session(self) -> Generator:
        """Create a session and start the keepalive process."""
        self.session_id = yield from self._call(
            "coord.session_create",
            {"owner": self.node.name, "timeout": SESSION_TIMEOUT},
        )
        self.node.spawn(self._keepalive(), name=f"{self.node.name}:coord-keepalive")
        return self.session_id

    def _keepalive(self) -> Generator:
        try:
            while True:
                yield self.env.timeout(HEARTBEAT_INTERVAL)
                try:
                    yield self.net.rpc(
                        self.node,
                        SERVER_NAME,
                        "coord.heartbeat",
                        {"session_id": self.session_id},
                        timeout=SESSION_TIMEOUT,
                    )
                except (RpcError, RpcTimeout):
                    return  # session lost; owner must re-establish explicitly
        except Interrupt:
            return  # node crashed

    def close_session(self) -> Generator:
        if self.session_id is not None:
            yield from self._call("coord.session_close", {"session_id": self.session_id})
            self.session_id = None

    # ------------------------------------------------------------------
    # znode operations (consume with ``yield from``)
    # ------------------------------------------------------------------
    def _call(self, method: str, payload: dict) -> Generator:
        try:
            result = yield self.net.rpc(self.node, SERVER_NAME, method, payload)
        except RpcError as exc:
            # RPC errors carry the remote exception; surface that directly.
            raise exc.cause from None
        return result

    def create(self, path: str, data: Any = None, ephemeral: bool = False) -> Generator:
        payload = {
            "path": path,
            "data": data,
            "ephemeral": ephemeral,
            "session_id": self.session_id,
        }
        return (yield from self._call("coord.create", payload))

    def set(self, path: str, data: Any, version: Optional[int] = None) -> Generator:
        return (yield from self._call("coord.set", {"path": path, "data": data, "version": version}))

    def get(self, path: str) -> Generator:
        return (yield from self._call("coord.get", {"path": path}))

    def delete(self, path: str, version: Optional[int] = None) -> Generator:
        return (yield from self._call("coord.delete", {"path": path, "version": version}))

    def exists(self, path: str) -> Generator:
        return (yield from self._call("coord.exists", {"path": path}))

    def children(self, path: str) -> Generator:
        return (yield from self._call("coord.children", {"path": path}))

    def watch(self, path: str) -> Generator:
        return (yield from self._call("coord.watch", {"path": path, "watcher": self.node.name}))

    def watch_children(self, path: str) -> Generator:
        return (yield from self._call("coord.watch_children", {"path": path, "watcher": self.node.name}))

    # ------------------------------------------------------------------
    # Watch delivery
    # ------------------------------------------------------------------
    def on_watch(self, handler: Callable[[WatchEvent], None]) -> None:
        """Register a callback invoked for every watch event delivered here."""
        self._watch_handlers.append(handler)

    def _on_watch_event(self, event: WatchEvent) -> None:
        for handler in list(self._watch_handlers):
            handler(event)


class LeaderElection:
    """Ephemeral-znode leader election, as used by Boki's controllers (§4.5).

    Each candidate tries to create the ephemeral election znode; the winner
    is leader until its session expires, at which point the deletion watch
    fires and the survivors race again.
    """

    def __init__(self, client: CoordClient, path: str = "/controller/leader"):
        self.client = client
        self.path = path
        self.is_leader = False
        self.leader_name: Optional[str] = None
        self._on_elected: List[Callable[[], None]] = []
        client.on_watch(self._watch_event)

    def on_elected(self, callback: Callable[[], None]) -> None:
        self._on_elected.append(callback)

    def campaign(self) -> Generator:
        """Try to become leader; returns True if won, False if lost.

        On loss, a watch is left on the znode so the next deletion re-runs
        the campaign automatically.
        """
        try:
            yield from self.client.create(self.path, self.client.node.name, ephemeral=True)
        except NodeExistsError:
            try:
                info = yield from self.client.get(self.path)
                self.leader_name = info["data"]
            except Exception:  # noqa: BLE001 - leader may vanish between calls
                self.leader_name = None
            yield from self.client.watch(self.path)
            return False
        self.is_leader = True
        self.leader_name = self.client.node.name
        for callback in list(self._on_elected):
            callback()
        return True

    def _watch_event(self, event: WatchEvent) -> None:
        if event.path != self.path or event.kind != "deleted":
            return
        if self.client.node.alive and not self.is_leader:
            self.client.node.spawn(self.campaign(), name="re-campaign")
