"""Helpers shared across the test tree."""

import json

from repro.chaos.history import History
from repro.chaos.loads import gateway_store_clients, register_store_fn
from repro.core.cluster import BokiCluster


def fault_free_run(enable=None, seed=5, num_clients=2, ops_per_client=10,
                   **topology):
    """The transparency workload every optional layer is held to: an
    identical fault-free gateway store load on a same-seed cluster, with
    ``enable(cluster)`` (if given) switching a layer on before boot.
    Returns the cluster and a comparable fingerprint of the whole run —
    a layer that observes but never perturbs leaves it byte-identical."""
    topology = topology or dict(num_function_nodes=2, num_storage_nodes=3,
                                num_sequencer_nodes=3)
    cluster = BokiCluster(seed=seed, **topology)
    if enable is not None:
        enable(cluster)
    cluster.boot()
    history = History(cluster.env)
    register_store_fn(cluster)
    procs = gateway_store_clients(cluster, history, num_clients=num_clients,
                                  ops_per_client=ops_per_client)
    cluster.env.run_until(cluster.env.all_of(procs), limit=300.0)
    fingerprint = json.dumps({
        "now": round(cluster.env.now, 9),
        "messages_sent": cluster.net.messages_sent,
        "history": history.to_dicts(),
    }, sort_keys=True)
    return cluster, fingerprint
