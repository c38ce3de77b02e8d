"""Self-tests of the perf ledger (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q`` (< 30 s).
They check the instrument, not the simulator's speed: the estimator's
arithmetic, the layer map, the catalogue against the contract's limits,
each workload's correctness checks at a tenth of its length, and that
the seed-exact counts really repeat.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import re

import pytest

from benchmarks.perf import catalogue, ladder, layers, ledger
from benchmarks.perf._calibrate import CHUNK_EVENTS
from benchmarks.perf.estimator import RepTiming, calibrated_cost
from benchmarks.perf.measure import COUNTED, TRACED, Pass, per_layer, run_rep
from benchmarks.perf.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def tiny(workload, factor=0.1):
    return dataclasses.replace(workload, duration=workload.duration * factor, slices=6)


# ----------------------------------------------------------------------
# Estimator
# ----------------------------------------------------------------------
def test_estimator_recovers_true_cost_despite_slow_phases():
    """Six repetitions of the same 60 slices; the host runs 2x slow for a
    different third of each repetition and one repetition has GC-like
    spikes. The calibrated estimate stays within 3% of the truth while
    the raw median of whole-run times is far off."""
    rng = random.Random(7)
    true_costs = [rng.uniform(5_000, 40_000) for _ in range(60)]  # reference events
    us = 1.1e-6  # seconds per reference event on the unloaded host
    reps = []
    for r in range(6):
        slow_from = 7 * r
        speed = [2.0 if slow_from <= k < slow_from + 20 else 1.0 for k in range(61)]
        timing = RepTiming()
        for k in range(61):
            timing.ref_cpu.append(CHUNK_EVENTS * us * speed[k] * rng.uniform(0.99, 1.01))
        for k, cost in enumerate(true_costs):
            spike = 3.0 if r == 2 and k % 13 == 0 else 1.0
            timing.slice_cpu.append(cost * us * speed[k] * spike * rng.uniform(0.99, 1.01))
        reps.append(timing)
    truth = sum(true_costs)
    assert calibrated_cost(reps) == pytest.approx(truth, rel=0.03)
    raw = sorted(t.cpu for t in reps)[3] / us
    assert abs(raw - truth) / truth > 0.2


# ----------------------------------------------------------------------
# Layer map
# ----------------------------------------------------------------------
def test_layer_map_is_total():
    src = os.path.join(ledger.ROOT, "src", "repro")
    seen = set()
    for folder, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                seen.add(layers.layer_of(os.path.join(folder, name)))
    assert seen <= set(layers.LAYERS)
    # Every layer the map can name under src/repro is reachable.
    assert seen == set(layers.LAYERS) - {"bench", "builtin"}
    assert layers.layer_of(os.path.join(src, "sim", "kernel.py")) == "sim.kernel"
    assert layers.layer_of(os.path.join(src, "sim", "network.py")) == "sim.network"
    assert layers.layer_of(os.path.join(src, "core", "cluster.py")) == "other"
    assert layers.layer_of(os.path.abspath(__file__)) == "bench"
    assert layers.layer_of("/usr/lib/python3.11/heapq.py") == "builtin"
    assert layers.layer_of("<string>") == "builtin"


def test_self_shares_sum_to_one_and_optional_layers_stay_silent():
    rep = run_rep(tiny(WORKLOADS["read_heavy"]), 0, TRACED)
    shares = {k: v for k, v in rep.extra.items() if k.startswith("self_share.")}
    assert set(shares) == {f"self_share.{layer}" for layer in layers.LAYERS}
    assert sum(shares.values()) == pytest.approx(1.0, abs=0.01)
    for layer in ("resil", "admission", "tenant"):
        assert rep.extra[f"calls_per_op.{layer}"] == 0


# ----------------------------------------------------------------------
# Catalogue and manifest against the contract's limits
# ----------------------------------------------------------------------
def test_catalogue_fits_the_contract():
    manifest = catalogue.manifest()
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert 1 <= manifest["run_seconds"] <= 60
    names = [w["name"] for w in manifest["workloads"]]
    names += [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert len(json.dumps(manifest)) < 64 * 1024


def test_benchmark_json_is_the_generated_manifest():
    path = os.path.join(ledger.ROOT, "BENCHMARK.json")
    with open(path) as fh:
        assert json.load(fh) == catalogue.manifest()


# ----------------------------------------------------------------------
# Workloads at a tenth of their length
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_passes_its_checks_at_tiny_scale(name):
    rep = run_rep(tiny(WORKLOADS[name]), 0, COUNTED)
    assert rep.failed == 0, rep.messages
    assert rep.ops > 20
    assert rep.extra["events"] > 0
    assert rep.extra["admission.shed_share"] == 0
    layered = name == "gateway_layers_on"
    assert (rep.extra["obs.spans_per_op"] > 0) == layered


def test_layers_are_transparent_at_tiny_scale():
    on = run_rep(tiny(WORKLOADS["gateway_layers_on"]), 3, COUNTED)
    off = run_rep(tiny(WORKLOADS["gateway_layers_off"]), 3, COUNTED)
    assert on.digest == off.digest
    assert on.ops == off.ops > 0


def test_a_broken_check_is_counted_and_fails_the_pass():
    workload = tiny(WORKLOADS["read_heavy"])

    def build(seed):
        run = workload.build(seed)
        run.fail("injected")
        return run
    run = Pass(dataclasses.replace(workload, build=build), 0)
    assert run.failed == 1
    assert run.result({})["correct"] is False


# ----------------------------------------------------------------------
# Seed-exact counts repeat; emitted names are the catalogue's
# ----------------------------------------------------------------------
def test_exact_counts_repeat_and_emitted_names_match_the_catalogue():
    workload = tiny(WORKLOADS["retwis_store"])
    first, second = per_layer(workload, 0, reps=1), per_layer(workload, 0, reps=1)
    assert first["correct"] and second["correct"]
    assert first["info"]["virt_digest"] == second["info"]["virt_digest"]
    exact = [k for k in first["metrics"]
             if k.startswith("calls_per_op.") or k.startswith(("sim.", "core.", "faas.", "obs."))]
    assert len(exact) > 25
    for key in exact:
        assert first["metrics"][key] == second["metrics"][key], key

    rungs = [tiny(rung, 0.25) for rung in ladder.RUNGS]
    a, b = ladder.run_ladder(0, 1, rungs), ladder.run_ladder(0, 1, rungs)
    assert a["failed"] == 0, a["messages"]
    for key in a["metrics"]:
        if key.endswith("events_per_op"):
            assert a["metrics"][key] == b["metrics"][key], key

    emitted = set(first["metrics"]) | set(a["metrics"])
    assert emitted == {m.name for m in catalogue.per_layer()}
