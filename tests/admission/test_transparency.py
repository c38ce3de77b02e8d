"""Admission control observes, never perturbs under-capacity traffic.

Mirrors the monitoring layer's transparency suite: the same seed with
admission control enabled must produce a byte-identical simulation
(virtual clock, message count, operation history) and leave every RNG
stream untouched, because every admission decision is plain arithmetic
over observed state and under-capacity load never trips a limit. This is
the invariant that makes it safe to leave admission enabled in
production runs: it only exists at saturation.
"""

import pytest

from repro.core.cluster import BokiCluster
from tests.conftest import fault_free_run

pytestmark = [pytest.mark.chaos, pytest.mark.admission]


def _run(admitted):
    return fault_free_run(BokiCluster.enable_admission if admitted else None)


def test_admission_invisible_to_an_under_capacity_run():
    _, plain = _run(admitted=False)
    admitted_cluster, admitted = _run(admitted=True)
    assert plain == admitted
    # The controller actually saw the traffic (not a vacuous pass)...
    ctl = admitted_cluster.admission
    assert sum(ctl.admitted.values()) == 20
    # ...and shed none of it: limits exist only at saturation.
    assert ctl.total_shed() == 0
    assert ctl.downstream_overloads == 0
    assert ctl.limiter.decreases == 0


def test_admission_consumes_no_rng():
    """Same streams created, every stream's state identical — admission
    decisions are arithmetic, never draws."""
    states = []
    for admitted in (False, True):
        cluster, _ = _run(admitted=admitted)
        states.append({
            name: rng.getstate()
            for name, rng in cluster.streams._streams.items()
        })
    assert sorted(states[0]) == sorted(states[1])
    for name in states[0]:
        assert states[0][name] == states[1][name], f"stream {name} diverged"


def test_node_windows_tracked_but_never_full():
    cluster, _ = _run(admitted=True)
    nodes = cluster.admission.nodes
    assert len(nodes) == 5  # 2 engines + 3 storage nodes guarded
    for node in nodes:
        assert node.window.admitted > 0 or "storage" in node.resource
        assert node.window.shed == 0
        assert node.codel.dropped == 0
        assert node.window.inflight == 0  # every enter paired with exit
