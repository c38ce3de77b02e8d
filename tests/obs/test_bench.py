"""Benchmark artifacts, the byte-equality gate, and the ``repro.obs`` CLI."""

import json
import os

import pytest

from repro.core.cluster import BokiCluster
from repro.obs.artifact import canonical_json
from repro.obs.bench import (
    ARTIFACT_DIR_ENV,
    ArtifactWriter,
    BenchmarkArtifact,
    lat_ms,
    load_artifact,
    main,
    throughput,
    validate_artifact,
)
from repro.obs.critical_path import AttributionAggregate
from repro.workloads.harness import run_closed_loop


# ----------------------------------------------------------------------
# Artifact schema and determinism
# ----------------------------------------------------------------------
def _run_artifact(seed):
    cluster = BokiCluster(
        num_function_nodes=2, num_storage_nodes=3, num_sequencer_nodes=3, seed=seed
    )
    obs = cluster.enable_observability()
    cluster.boot()
    engines = list(cluster.engines.values())

    def make_op(client, _measure):
        book = cluster.logbook(1, engine=engines[client % len(engines)])

        def op():
            yield from book.append("y" * 128)

        return op

    result = run_closed_loop(
        cluster.env, make_op, num_clients=2, duration=0.04, obs=obs
    )
    agg = AttributionAggregate()
    agg.add_spans(obs.tracer.spans)
    return BenchmarkArtifact(
        benchmark_id="unit_append",
        title="unit append run",
        seed=seed,
        config={"clients": 2, "duration_s": 0.04},
        metrics={
            "append.p50_ms": lat_ms(result.median_latency()),
            "append.throughput": throughput(result.throughput),
        },
        counters={"completed": float(result.completed)},
        critical_path=agg.to_dict(),
    )


def test_same_seed_runs_are_byte_identical():
    first = canonical_json(_run_artifact(seed=13).to_dict())
    second = canonical_json(_run_artifact(seed=13).to_dict())
    assert first == second
    # And the payload is schema-valid with a populated attribution block.
    doc = json.loads(first)
    validate_artifact(doc)
    assert doc["critical_path"]["traces"] > 0


def test_validate_artifact_lists_problems():
    doc = _run_artifact(seed=13).to_dict()
    validate_artifact(doc)  # the real thing passes
    broken = dict(doc, schema="bogus/0", metrics={})
    del broken["critical_path"]
    with pytest.raises(ValueError) as excinfo:
        validate_artifact(broken)
    message = str(excinfo.value)
    assert "schema" in message
    assert "metrics" in message
    assert "critical_path" in message


def test_writer_honors_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path / "arts"))
    artifact = _run_artifact(seed=13)
    path = ArtifactWriter().write(artifact)
    assert path == str(tmp_path / "arts" / "unit_append.json")
    assert load_artifact(path)["benchmark_id"] == "unit_append"


# ----------------------------------------------------------------------
# CLI: check (the gate), report, bench run --update-baselines
# ----------------------------------------------------------------------
@pytest.fixture()
def gate_dirs(tmp_path):
    baselines = tmp_path / "baselines"
    artifacts = tmp_path / "artifacts"
    baselines.mkdir()
    artifacts.mkdir()
    artifact = _run_artifact(seed=13)
    (baselines / "unit_append.json").write_text(canonical_json(artifact.to_dict()))
    (artifacts / "unit_append.json").write_text(canonical_json(artifact.to_dict()))
    return baselines, artifacts


def _check(baselines, artifacts):
    return main(["check", str(baselines), str(artifacts)])


def test_check_unchanged_tree_exits_zero(gate_dirs, capsys):
    baselines, artifacts = gate_dirs
    # One-sided: a fresh file that was never committed is not a mismatch.
    (artifacts / "never_committed.json").write_text("{}\n")
    assert _check(baselines, artifacts) == 0
    assert "[check] OK" in capsys.readouterr().out


def test_check_perturbed_metric_exits_nonzero_and_names_the_leaf(gate_dirs, capsys):
    baselines, artifacts = gate_dirs
    doc = load_artifact(str(artifacts / "unit_append.json"))
    old = doc["metrics"]["append.p50_ms"]["value"]
    doc["metrics"]["append.p50_ms"]["value"] = new = old * 1.0001
    (artifacts / "unit_append.json").write_text(canonical_json(doc))
    assert _check(baselines, artifacts) == 1
    lines = capsys.readouterr().out.splitlines()
    # Exactly the leaf that moved, in paste-ready form, then the verdict.
    assert lines[0] == (
        f"unit_append.json: metrics.append.p50_ms.value: "
        f"{json.dumps(old)} -> {json.dumps(new)}"
    )
    assert len(lines) == 2 and lines[1].startswith("[check] FAIL")


def test_check_missing_artifact_exits_nonzero(gate_dirs, capsys):
    baselines, artifacts = gate_dirs
    os.remove(str(artifacts / "unit_append.json"))
    assert _check(baselines, artifacts) == 1
    assert "unit_append.json: not regenerated" in capsys.readouterr().out


def test_report_renders_artifact(gate_dirs, capsys):
    _, artifacts = gate_dirs
    assert main(["report", str(artifacts / "unit_append.json")]) == 0
    out = capsys.readouterr().out
    assert "unit_append" in out
    assert "critical path" in out


_TINY_BENCHMARK = """
from repro.obs.bench import ArtifactWriter, BenchmarkArtifact, info

def test_emit():
    ArtifactWriter().write(BenchmarkArtifact("tiny", metrics={"n": info(1.0)}))
"""


def test_update_baselines_refreshes_only_what_this_run_emitted(gate_dirs, tmp_path):
    """``--artifacts`` survives between runs; a leftover from an earlier
    run must not be promoted to a committed baseline."""
    baselines, artifacts = gate_dirs
    os.remove(str(baselines / "unit_append.json"))  # stale: in artifacts only
    target = tmp_path / "test_tiny_benchmark.py"
    target.write_text(_TINY_BENCHMARK)
    assert main(["bench", "run", str(target), "--update-baselines",
                 "--artifacts", str(artifacts), "--baselines", str(baselines)]) == 0
    assert sorted(os.listdir(baselines)) == ["tiny.json"]
    assert sorted(os.listdir(artifacts)) == ["tiny.json", "unit_append.json"]
    assert _check(baselines, artifacts) == 0


def test_committed_baselines_are_valid():
    baseline_dir = os.path.join(os.path.dirname(__file__), "..", "..", "bench", "baselines")
    entries = [e for e in sorted(os.listdir(baseline_dir)) if e.endswith(".json")]
    assert entries, "no committed baselines"
    for entry in entries:
        doc = load_artifact(os.path.join(baseline_dir, entry))
        assert doc["benchmark_id"] == entry[: -len(".json")]
