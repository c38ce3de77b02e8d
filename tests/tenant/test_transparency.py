"""Tenancy observes, never perturbs unlabelled traffic.

Mirrors the admission layer's transparency suite: a run that never
enables tenancy and a run that enables it but labels nothing must be
byte-identical (virtual clock, message count, operation history) and
leave every RNG stream untouched. This is the invariant that makes
``enable_tenancy()`` safe to leave on: unlabelled invocations resolve
to the implicit default tenant — identity log space, no rate bucket,
no DRR queue — so the hub attributes the traffic without perturbing it.
"""

import pytest

from tests.conftest import fault_free_run

pytestmark = [pytest.mark.chaos, pytest.mark.tenant]


def _run(tenancy, labelled=False):
    def enable(cluster):
        hub = cluster.enable_tenancy()
        if labelled:
            hub.registry.register("acme")

    return fault_free_run(enable if tenancy else None)


def test_tenancy_invisible_to_an_unlabelled_run():
    _, plain = _run(tenancy=False)
    enabled_cluster, enabled = _run(tenancy=True)
    assert plain == enabled
    # The hub attributed every op to the implicit default tenant (not a
    # vacuous pass) and perturbed none of it: no bucket, no sheds.
    hub = enabled_cluster.tenancy
    assert hub is not None
    snap = hub.fairness_snapshot()["tenants"]
    assert set(snap) == {"default"}
    assert snap["default"]["admitted"] == 20
    assert snap["default"]["bucket"] is None
    assert hub.total_shed() == 0


def test_registered_but_idle_tenants_change_nothing():
    """Registering tenants nobody uses must also be a no-op: log-space
    assignment is bookkeeping until a labelled invocation arrives."""
    _, plain = _run(tenancy=False)
    _, enabled = _run(tenancy=True, labelled=True)
    assert plain == enabled


def test_tenancy_consumes_no_rng():
    """Same streams created, every stream's state identical — scoping is
    arithmetic and QoS state is built lazily, never from draws."""
    states = []
    for tenancy in (False, True):
        cluster, _ = _run(tenancy=tenancy)
        states.append({
            name: rng.getstate()
            for name, rng in cluster.streams._streams.items()
        })
    assert sorted(states[0]) == sorted(states[1])
    for name in states[0]:
        assert states[0][name] == states[1][name], f"stream {name} diverged"


def test_labelled_traffic_is_actually_counted():
    """Sanity against a vacuous transparency pass: the moment traffic is
    labelled, the hub sees it."""
    cluster, _ = _run(tenancy=True, labelled=True)
    hub = cluster.tenancy

    def burst():
        result = yield from cluster.invoke(
            "store-op", {"op": "put", "key": "k", "value": {"v": 1}},
            book_id=2, tenant="acme")
        return result

    cluster.drive(burst())
    snap = hub.fairness_snapshot()["tenants"]["acme"]
    assert snap["admitted"] == 1
    assert snap["shed"] == 0
