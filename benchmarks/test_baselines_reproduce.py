"""Every committed baseline is what the tree emits today, byte for byte.

The benchmarks are seed-deterministic and their artifacts carry virtual
time only, so the gate is equality: each file in ``bench/baselines/``
has a byte-identical fresh copy — headline metrics, counters and
attribution alike (``fig11c_primitives`` once went nine PRs without
describing the tree because only a tolerance band was checked).

Outside tier-1 (it runs the fast benchmark subset, ~16 s). The
``bench-gate`` CI job makes the same check from the command line:
``python -m repro.obs bench run`` then ``python -m repro.obs check
bench/baselines bench/artifacts``.
"""

import os

from repro.obs import bench
from repro.obs.artifact import mismatches

BASELINE_DIR = os.path.join(os.path.dirname(__file__), "..",
                            bench.DEFAULT_BASELINE_DIR)


def test_baselines_equal_fresh_artifacts(tmp_path):
    fresh = str(tmp_path / "artifacts")
    assert bench.main(["bench", "run", "--artifacts", fresh]) == 0
    assert mismatches(BASELINE_DIR, fresh) == [], (
        "a baseline no longer reproduces; if the change is intended, "
        "regenerate with: python -m repro.obs bench run --update-baselines "
        "and paste the lines above into CHANGES.md with what moved them"
    )
