"""The Beldi primitive-operation microbenchmark (Figure 11c).

Measures median and p99 latency of the four workflow primitives — Read,
Write, CondWrite, Invoke — on each of the three systems (unsafe baseline,
Beldi, BokiFlow). A trivial child function backs the Invoke measurement.
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.sim.metrics import LatencyRecorder


def register_primitive_workflows(runtime) -> None:
    """Deploy the no-op child plus one driver workflow per primitive."""

    def noop_child(env, arg):
        if False:
            yield
        return arg

    def driver(primitive):
        """A workflow timing ``arg["ops"]`` calls of
        ``primitive(env, i)``, one after another."""
        def measure(env, arg):
            results = []
            sim = env.runtime.cluster.env
            for i in range(arg["ops"]):
                started = sim.now
                yield from primitive(env, i)
                results.append(sim.now - started)
            return results
        return measure

    prefix = runtime.__class__.__name__
    runtime.register_workflow(f"{prefix}-noop-child", noop_child)
    for name, primitive in [
        ("read", lambda env, i: env.read("bench", f"key-{i % 16}")),
        ("write", lambda env, i: env.write("bench", f"key-{i % 16}", i)),
        ("condwrite", lambda env, i: env.cond_write("bench", f"key-{i % 16}", i,
                                                    expected=None)),
        ("invoke", lambda env, i: env.invoke(f"{prefix}-noop-child", None)),
    ]:
        runtime.register_workflow(f"{prefix}-{name}", driver(primitive))


def measure_primitives(
    runtime, ops_per_workflow: int = 20, workflows: int = 5
) -> Dict[str, LatencyRecorder]:
    """Run the drivers; returns recorders keyed by primitive name. Must be
    driven inside the cluster's simulation (use ``cluster.drive``)."""
    cluster = runtime.cluster
    prefix = runtime.__class__.__name__
    out: Dict[str, LatencyRecorder] = {}

    def experiment() -> Generator:
        for primitive in ["read", "write", "condwrite", "invoke"]:
            recorder = LatencyRecorder(primitive)
            for w in range(workflows):
                samples = yield from runtime.start_workflow(
                    f"{prefix}-{primitive}", {"ops": ops_per_workflow}, book_id=50 + w
                )
                for s in samples:
                    recorder.record(s)
            out[primitive] = recorder

    cluster.drive(experiment(), limit=3600.0)
    return out
