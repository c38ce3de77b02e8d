"""A node window guards both point shapes with one wrapper: the engine's
generator ``append`` and storage's deferred-reply ``_h_replicate``.

Here on one storage node whose window holds a single write: a second
write that arrives while the first holds the CPU is shed at arrival, and
every admitted write leaves the window exactly once.
"""

import pytest

from repro.admission import BoundedWindow, NodeAdmission, Overloaded
from repro.core.config import BokiConfig
from repro.core.placement import build_term
from repro.core.storage import StorageNode
from repro.sim import Environment, Network, Node, RpcError
from repro.sim.seam import subscribe
from tests.conftest import ExactNetworkStreams

pytestmark = pytest.mark.admission


@pytest.fixture
def world():
    env = Environment()
    net = Network(env, ExactNetworkStreams(seed=37))
    config = BokiConfig()
    storage = StorageNode(env, net, "s0", config)
    for name in ["s1", "s2", "e0", "q0", "q1", "q2"]:
        net.register(Node(env, name))
    storage.configure(build_term(config, 1, ["e0"], ["s0", "s1", "s2"], ["q0", "q1", "q2"], 1))
    caller = net.register(Node(env, "caller"))
    guard = NodeAdmission(env, "storage.s0", config.storage_service)
    guard.window = BoundedWindow(1)
    exits = []
    exit_window = guard.exit

    def counted_exit():
        exits.append(env.now)
        exit_window()

    guard.exit = counted_exit
    guard.guard(storage, "_h_replicate")
    return env, net, storage, caller, guard, exits


def payload(local_id):
    return {"term": 1, "log_id": 0, "shard": "e0", "local_id": local_id,
            "book_id": 1, "tags": (2,), "data": "x", "seqnum": None}


def outcomes(env, calls):
    env.run_until(env.gather(calls), limit=1.0)
    return [call.value if call.ok else call.value.cause for call in calls]


def test_a_shed_write_is_refused_at_arrival_before_it_joins_the_cpu(world):
    env, net, storage, caller, guard, exits = world
    entered = []
    subscribe(storage, "write_entered", entered.append)
    # Same arrival instant: the second write finds the first in its hold.
    calls = [net.rpc(caller, "s0", "storage.replicate", payload(i)) for i in (0, 1)]
    env.run(until=60e-6)  # both arrived, the first still holds the CPU
    assert storage.node.cpu.in_use == 1 and storage.node.cpu.queued == 0
    assert entered == [1]  # the shed write never reached the handler
    first, second = outcomes(env, calls)
    assert first is True
    assert isinstance(second, Overloaded) and second.reason == "window-full"
    assert storage._shards[1, 0, "e0"].records.keys() == {0}
    assert guard.window.shed == 1 and guard.window.admitted == 1
    assert len(exits) == 1 and guard.window.inflight == 0


def test_every_admitted_write_exits_once_also_when_the_handler_raises(world):
    env, net, storage, caller, guard, exits = world
    raised = []

    def refuse_once(pending):
        # An observer that raises stands in for a handler that raises
        # before it returns its hold.
        if not raised:
            raised.append(pending)
            raise RuntimeError("refused")

    subscribe(storage, "write_entered", refuse_once)
    first = net.rpc(caller, "s0", "storage.replicate", payload(0))
    (cause,) = outcomes(env, [first])
    assert isinstance(first.value, RpcError) and isinstance(cause, RuntimeError)
    assert len(exits) == 1 and guard.window.inflight == 0
    # The slot came back: with room for one, the next write is admitted.
    for local_id in (1, 2):
        call = net.rpc(caller, "s0", "storage.replicate", payload(local_id))
        assert outcomes(env, [call]) == [True]
    assert guard.window.admitted == 3 and guard.window.shed == 0
    assert len(exits) == 3 and guard.window.inflight == 0
