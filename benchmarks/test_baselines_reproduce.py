"""Every committed baseline is what the tree emits today, byte for byte.

``repro.obs bench compare`` classifies only the gated metrics, against
tolerance bands — so counters, attribution and sub-tolerance drift go
unnoticed, and a baseline nobody regenerated stops describing the tree
(``fig11c_primitives`` did for nine PRs). The benchmarks are
seed-deterministic, so the stronger check is cheap to state: each file in
``bench/baselines/`` equals its freshly emitted artifact, ignoring only
the informational host-time ``wall`` block.

Outside tier-1 (it runs the fast benchmark subset, ~16 s); the
``bench-gate`` CI job runs it.
"""

import json
import os

import pytest

from repro.obs import bench

BASELINE_DIR = os.path.join(os.path.dirname(__file__), "..",
                            bench.DEFAULT_BASELINE_DIR)
BASELINES = sorted(f for f in os.listdir(BASELINE_DIR) if f.endswith(".json"))


def _canonical(path):
    doc = bench.load_artifact(path)
    doc.pop("wall", None)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.fixture(scope="module")
def fresh_artifacts(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("artifacts"))
    assert bench.main(["bench", "run", "--artifacts", directory]) == 0
    return directory


@pytest.mark.parametrize("name", BASELINES)
def test_baseline_equals_fresh_artifact(name, fresh_artifacts):
    fresh = os.path.join(fresh_artifacts, name)
    assert os.path.exists(fresh), (
        f"{name} has a baseline but the fast subset emitted no artifact")
    assert _canonical(os.path.join(BASELINE_DIR, name)) == _canonical(fresh), (
        f"{name} no longer reproduces; if the change is intended, "
        f"regenerate with: python -m repro.obs bench run --update-baselines "
        f"and say in CHANGES.md what moved it"
    )
