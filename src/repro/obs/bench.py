"""Benchmark run artifacts and the ``python -m repro.obs`` command line.

Every ``benchmarks/test_*`` emits a :class:`BenchmarkArtifact`: the
benchmark id, its config/scale factors and seed, headline metrics
(latency percentiles, throughput, counter totals), and a critical-path
attribution block explaining where the virtual time went. Artifacts are
deterministic for a given seed (virtual time only, sorted keys), so two
same-seed runs produce byte-identical JSON, and the committed baselines
in ``bench/baselines/*.json`` are gated by equality
(:mod:`repro.obs.artifact`), like every other deterministic document::

    python -m repro.obs bench run [--all] [--update-baselines]
    python -m repro.obs check COMMITTED_DIR FRESH_DIR
    python -m repro.obs report PATH|DIR ...

``check`` exits non-zero unless every committed file has a byte-identical
fresh copy; ``report`` renders any document the repo emits by its
``schema`` key. Host time is not here: it is noisy, and
``benchmarks/perf`` measures and compares it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.artifact import json_names, mismatches, write_json

SCHEMA = "repro.bench/1"

#: Benchmarks fast enough for the CI ``bench-gate`` job (< ~60 s together);
#: each has a committed baseline.
FAST_SUBSET = (
    "benchmarks/test_table3_read_latency.py",
    "benchmarks/test_fig11c_primitives.py",
    "benchmarks/test_elasticity_autoscale.py",
    "benchmarks/test_overload_goodput.py",
    "benchmarks/test_tenant_isolation.py",
)

DEFAULT_ARTIFACT_DIR = "bench/artifacts"
DEFAULT_BASELINE_DIR = "bench/baselines"
ARTIFACT_DIR_ENV = "REPRO_BENCH_DIR"


# ----------------------------------------------------------------------
# Metrics and the artifact schema
# ----------------------------------------------------------------------
def metric(
    value: float,
    unit: str = "",
    better: Optional[str] = None,
) -> Dict[str, Any]:
    """One headline metric: value, unit, improvement direction
    (``"lower"`` / ``"higher"`` / None)."""
    if better not in (None, "lower", "higher"):
        raise ValueError(f"bad direction {better!r}")
    return {"value": float(value), "unit": unit, "better": better}


def lat_ms(seconds: float) -> Dict[str, Any]:
    """A latency metric recorded in milliseconds (lower is better)."""
    return metric(seconds * 1e3, unit="ms", better="lower")


def throughput(per_second: float) -> Dict[str, Any]:
    """A rate metric in ops/second (higher is better)."""
    return metric(per_second, unit="op/s", better="higher")


def info(value: float, unit: str = "") -> Dict[str, Any]:
    """A directionless metric (counts, ratios)."""
    return metric(value, unit=unit, better=None)


@dataclass
class BenchmarkArtifact:
    """One benchmark run's machine-readable result."""

    benchmark_id: str
    title: str = ""
    seed: int = 0
    config: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    critical_path: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "benchmark_id": self.benchmark_id,
            "title": self.title,
            "seed": self.seed,
            "config": self.config,
            "metrics": self.metrics,
            "counters": self.counters,
            "critical_path": self.critical_path,
        }


def validate_artifact(doc: Dict[str, Any]) -> None:
    """Raise ``ValueError`` listing every schema violation in ``doc``."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        raise ValueError("artifact is not a JSON object")
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    if not doc.get("benchmark_id") or not isinstance(doc.get("benchmark_id"), str):
        problems.append("benchmark_id missing or not a string")
    if not isinstance(doc.get("seed"), int):
        problems.append("seed missing or not an int")
    if not isinstance(doc.get("config"), dict):
        problems.append("config missing or not an object")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        problems.append("metrics missing or empty")
    else:
        for name, m in metrics.items():
            if not isinstance(m, dict) or "value" not in m:
                problems.append(f"metric {name!r} has no value")
                continue
            if not isinstance(m["value"], (int, float)):
                problems.append(f"metric {name!r} value is not a number")
            if m.get("better") not in (None, "lower", "higher"):
                problems.append(f"metric {name!r} has bad direction {m.get('better')!r}")
    if not isinstance(doc.get("counters"), dict):
        problems.append("counters missing or not an object")
    if "critical_path" not in doc:
        problems.append("critical_path block missing")
    else:
        cp = doc["critical_path"]
        if cp is not None:
            for key in ("traces", "total_s", "categories_s", "share"):
                if key not in cp:
                    problems.append(f"critical_path.{key} missing")
    if problems:
        raise ValueError("invalid artifact: " + "; ".join(problems))


def load_artifact(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        doc = json.load(handle)
    validate_artifact(doc)
    return doc


class ArtifactWriter:
    """Writes artifacts as ``<dir>/<benchmark_id>.json`` (dir created)."""

    def __init__(self, directory: Optional[str] = None):
        self.directory = directory or os.environ.get(
            ARTIFACT_DIR_ENV, DEFAULT_ARTIFACT_DIR
        )

    def write(self, artifact: BenchmarkArtifact) -> str:
        doc = artifact.to_dict()
        validate_artifact(doc)
        return write_json(doc, self.directory, f"{artifact.benchmark_id}.json")


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def render_artifact(doc: Dict[str, Any]) -> str:
    """Human-readable rendering of one artifact (metrics + attribution)."""
    lines = [f"=== {doc['benchmark_id']} — {doc.get('title') or 'benchmark'} ==="]
    if doc.get("config"):
        cfg = ", ".join(f"{k}={v}" for k, v in sorted(doc["config"].items()))
        lines.append(f"config: {cfg} (seed {doc.get('seed', 0)})")
    header = f"{'metric':<44} {'value':>12} {'unit':<6} {'better'}"
    lines.append(header)
    lines.append("-" * len(header))
    for name in sorted(doc["metrics"]):
        m = doc["metrics"][name]
        lines.append(
            f"{name:<44} {m['value']:>12.4g} {m.get('unit', ''):<6} "
            f"{m.get('better') or '-'}"
        )
    cp = doc.get("critical_path")
    if cp and cp.get("traces"):
        lines.append(
            f"critical path: {cp['traces']} traces, "
            f"{cp['total_s'] * 1e3:.3f} ms attributed"
        )
        ranked = sorted(
            cp["categories_s"].items(), key=lambda item: (-item[1], item[0])
        )
        for category, seconds in ranked:
            share = cp["share"].get(category, 0.0)
            lines.append(f"  {category:<10} {seconds * 1e3:>12.3f} ms  {share:>6.1%}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI: python -m repro.obs bench run | check | report
# ----------------------------------------------------------------------
def _repo_root() -> str:
    import repro

    return os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))))


def _cmd_run(args: argparse.Namespace) -> int:
    root = _repo_root()
    if args.benchmarks:
        targets = list(args.benchmarks)
    elif args.all:
        targets = ["benchmarks"]
    else:
        targets = list(FAST_SUBSET)
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    cmd += [t if os.path.isabs(t) else os.path.join(root, t) for t in targets]
    if args.keyword:
        cmd += ["-k", args.keyword]
    print(f"[bench] running: {' '.join(cmd)}")
    # The child writes into a fresh directory, so what is copied out — into
    # --artifacts (which survives between runs) and, when asked, into the
    # committed baselines — is exactly what this invocation emitted.
    with tempfile.TemporaryDirectory() as emitted:
        env[ARTIFACT_DIR_ENV] = emitted
        proc = subprocess.run(cmd, env=env, cwd=root)
        docs = {name: load_artifact(os.path.join(emitted, name))
                for name in json_names(emitted)}
    for name, doc in docs.items():
        write_json(doc, args.artifacts, name)
    print(f"[bench] {len(docs)} artifact(s) -> {os.path.abspath(args.artifacts)}")
    if proc.returncode != 0:
        return proc.returncode
    if args.update_baselines:
        for name, doc in docs.items():
            write_json(doc, args.baselines, name)
        print(f"[bench] refreshed {len(docs)} baseline(s) in {args.baselines}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    lines = mismatches(args.committed, args.fresh)
    for line in lines:
        print(line)
    if lines:
        print(f"[check] FAIL: {args.fresh} does not reproduce {args.committed}")
        return 1
    print(f"[check] OK: {args.fresh} reproduces every file of {args.committed}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    # Imported here: repro.chaos imports repro.obs, never the reverse at
    # module level.
    from repro.chaos.runner import SCHEMA as CHAOS_SCHEMA
    from repro.chaos.runner import render_verdict, validate_verdict
    from repro.obs.alerts import (
        MONITOR_SCHEMA,
        render_flight_record,
        validate_flight_record,
    )

    by_schema = {
        SCHEMA: (validate_artifact, render_artifact),
        CHAOS_SCHEMA: (validate_verdict, render_verdict),
        MONITOR_SCHEMA: (validate_flight_record, render_flight_record),
    }
    paths: List[str] = []
    for target in args.paths:
        if os.path.isdir(target):
            paths += [os.path.join(target, name) for name in json_names(target)]
        else:
            paths.append(target)
    if not paths:
        print("[report] nothing to report", file=sys.stderr)
        return 2
    bad = 0
    for i, path in enumerate(paths):
        if i:
            print()
        with open(path) as handle:
            doc = json.load(handle)
        schema = doc.get("schema") if isinstance(doc, dict) else None
        try:
            if schema not in by_schema:
                raise ValueError(f"unknown schema {schema!r}")
            validate, render = by_schema[schema]
            validate(doc)
        except ValueError as exc:
            bad += 1
            print(f"[report] INVALID {path}: {exc}")
            continue
        print(render(doc))
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Deterministic artifacts: emit them, gate them by byte "
                    "equality, render them.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    bench = commands.add_parser("bench", help="benchmark artifact pipeline")
    sub = bench.add_subparsers(dest="subcommand", required=True)

    run = sub.add_parser("run", help="run benchmarks and emit artifacts")
    run.add_argument("benchmarks", nargs="*", help="pytest targets (default: fast subset)")
    run.add_argument("--all", action="store_true", help="run the full benchmarks/ tree")
    run.add_argument("--artifacts", default=DEFAULT_ARTIFACT_DIR)
    run.add_argument("--baselines", default=DEFAULT_BASELINE_DIR)
    run.add_argument("-k", dest="keyword", default=None, help="pytest -k filter")
    run.add_argument(
        "--update-baselines", action="store_true",
        help="copy the artifacts this run emitted into the baseline directory",
    )
    run.set_defaults(func=_cmd_run)

    check = commands.add_parser(
        "check",
        help="exit 1 unless every committed .json has a byte-identical fresh copy",
    )
    check.add_argument("committed", metavar="COMMITTED_DIR")
    check.add_argument("fresh", metavar="FRESH_DIR")
    check.set_defaults(func=_cmd_check)

    report = commands.add_parser(
        "report",
        help="validate and render benchmark artifacts, chaos verdicts and "
             "flight records (picked by each document's schema key)",
    )
    report.add_argument("paths", nargs="+", metavar="PATH|DIR")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
