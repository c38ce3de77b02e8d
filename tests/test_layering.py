"""The protocol files know nothing of the optional layers.

Observability, monitoring, resilience, admission and tenancy attach from
outside through ``repro.sim.seam`` (signals + declared wrap points). This
guard keeps layer attributes, enabled-flag tests and the deleted wrapper
halves from creeping back into the files that implement Figures 2 and 4.
"""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

from repro.admission import AdaptiveLimiter, AdmissionController
from repro.coord import CoordClient
from repro.core.cluster import BokiCluster
from repro.core.config import BokiConfig
from repro.core.controller import Controller
from repro.core.placement import build_term
from repro.elastic import Autoscaler, PolicyConfig
from repro.faas import FunctionContext, FunctionNode, Gateway
from repro.libs.bokiflow.protocol import WorkflowRuntime
from repro.libs.bokistore import BokiStore, Transaction
from repro.obs import BurnRateRule, KernelProfiler, MonitorHub, ObsRecorder
from repro.resil import Resilience, RetryBudget, RetryPolicy
from repro.sim import Environment, Network
from repro.tenant import TenancyHub
from repro.workloads.harness import ZipfianSampler, run_closed_loop
from repro.workloads.microbench import append_and_read, append_only
from repro.workloads.queueing import SQSBackend, run_queue_workload

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
PROTOCOL_FILES = [
    "core/engine.py", "core/storage.py", "core/sequencer.py",
    "faas/gateway.py", "faas/worker.py", "sim/network.py",
]
LAYER_ATTRS = {"obs", "monitor", "resil", "admission", "tenancy"}
DELETED_NAMES = [
    "DISABLED", "trace_hook", "_append_admitted", "_replicate_impl",
    "_read_local_impl", "_resil_policies", "_invoke_with_failover",
]


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("relpath", PROTOCOL_FILES)
def test_protocol_file_has_no_layer_attribute_or_enabled_test(relpath):
    offences = []
    for node in ast.walk(_tree(SRC / relpath)):
        if not isinstance(node, ast.Attribute):
            continue
        on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
        if node.attr in LAYER_ATTRS and (on_self or isinstance(node.ctx, ast.Store)):
            offences.append(f"line {node.lineno}: layer attribute .{node.attr}")
        if node.attr == "enabled":
            offences.append(f"line {node.lineno}: .enabled test")
    assert not offences, f"{relpath}: {offences}"


@pytest.mark.parametrize("package", ["core", "faas"])
def test_deleted_wrapper_halves_stay_deleted(package):
    for path in sorted((SRC / package).glob("*.py")):
        text = path.read_text()
        found = [name for name in DELETED_NAMES if name in text]
        assert not found, f"{path.name} mentions {found}"


def test_sim_imports_nothing_from_the_layers():
    layers = tuple(f"repro.{name}" for name in
                   ("obs", "resil", "admission", "tenant", "elastic"))
    offences = []
    for path in sorted((SRC / "sim").glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            offences += [f"{path.name}:{node.lineno} imports {m}"
                         for m in modules if m.startswith(layers)]
    assert not offences, offences


def test_the_kernel_has_one_run_loop_and_knows_no_profiler():
    """``KernelProfiler`` attaches from outside, at ``call_later`` /
    ``timer``: the kernel names no observer, and one ``Environment``
    method pops the heap and runs what it popped (``peek`` pops only
    cancelled timers)."""
    path = SRC / "sim" / "kernel.py"
    text = path.read_text()
    assert "profiler" not in text
    assert not re.findall(r"\b(?:_profiled_loop|_pick_loop|on_event)\b", text)
    env_class = next(node for node in _tree(path).body
                     if isinstance(node, ast.ClassDef) and node.name == "Environment")
    runners = []
    for method in env_class.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        called = {node.func.id for node in ast.walk(method)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        if {"heappop", "fn"} <= called:
            runners.append(method.name)
    assert runners == ["_loop"]


def test_seam_is_self_contained():
    imports = [node for node in ast.walk(_tree(SRC / "sim" / "seam.py"))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = {getattr(node, "module", None) or node.names[0].name for node in imports}
    assert modules <= {"__future__", "typing"}, modules


@pytest.mark.parametrize("relpath", [
    "libs/bokistore/store.py", "libs/bokiqueue/queue.py", "libs/bokiflow/env.py",
])
def test_support_libraries_carry_no_history_attribute(relpath):
    """A chaos history attaches with ``History.watch`` (the seam's
    ``chaos`` layer), not through attributes the libraries carry."""
    offences = [f"line {node.lineno}: .{node.attr}"
                for node in ast.walk(_tree(SRC / relpath))
                if isinstance(node, ast.Attribute)
                and node.attr in ("history", "client_name")]
    assert not offences, f"{relpath}: {offences}"


def test_admission_decisions_reach_the_hub_only_through_its_taps():
    """Admission and tenancy emit ``admission_decided``; only the hub's
    ``TAPS`` table names the method it feeds."""
    offences = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
                if "on_admission" in path.read_text()]
    assert offences == ["obs/monitor.py"]


def test_tests_and_benchmarks_import_no_private_chaos_name():
    """What tests and benchmarks share with the chaos scenarios (loads,
    fixtures) is public API of ``repro.chaos``; reaching for an
    underscore-prefixed name couples them to a scenario's internals."""
    root = SRC.parents[1]
    offences = []
    for top in ("tests", "benchmarks"):
        for path in sorted((root / top).rglob("*.py")):
            for node in ast.walk(_tree(path)):
                if (isinstance(node, ast.ImportFrom)
                        and (node.module or "").startswith("repro.chaos")):
                    offences += [
                        f"{path.relative_to(root)}:{node.lineno} imports "
                        f"{alias.name} from {node.module}"
                        for alias in node.names if alias.name.startswith("_")]
    assert not offences, offences



def _methods(paths, names):
    """Every ``Class.method`` under ``paths`` whose method name is in
    ``names``, sorted."""
    return sorted(
        f"{cls.name}.{node.name}"
        for path in paths
        for cls in ast.walk(_tree(path)) if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name in names)


def test_workflow_protocol_is_written_once():
    """BokiFlow, Beldi and the unsafe baseline are one protocol over three
    step logs (Figure 11 compares logs): a second ``cond_write`` or
    ``commit`` among them is a copy that will drift."""
    paths = sorted((SRC / "libs" / "bokiflow").glob("*.py")) + [
        SRC / "baselines" / "beldi.py", SRC / "baselines" / "unsafe.py"]
    assert _methods(paths, {
        "write", "cond_write", "invoke", "invoke_parallel",
        "register_workflow", "start_workflow", "acquire", "commit",
    }) == [
        "WorkflowHandle.cond_write", "WorkflowHandle.invoke",
        "WorkflowHandle.invoke_parallel", "WorkflowHandle.write",
        "WorkflowRuntime.register_workflow", "WorkflowRuntime.start_workflow",
        "WorkflowTxn.acquire", "WorkflowTxn.commit", "WorkflowTxn.write",
    ]


def test_simulated_services_share_one_service_and_one_call_body():
    paths = sorted((SRC / "baselines").glob("*.py"))
    assert _methods(paths, {"_service", "_call"}) == [
        "ServiceClient._call", "SimulatedService._service"]


def test_the_retry_decision_is_sequenced_in_one_function():
    """When a failed call is retried, and what that costs, has one
    definition: a second caller of the policy test or the budget inside
    ``resil/`` is a second retry loop with its own order of effects."""
    callers = {"should_retry": [], "try_spend": []}
    for path in sorted((SRC / "resil").glob("*.py")):
        for fn in ast.walk(_tree(path)):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in callers):
                    callers[node.func.attr].append(fn.name)
    assert callers == {"should_retry": ["_next_delay"],
                       "try_spend": ["_next_delay"]}


def test_the_backoff_formula_is_applied_in_one_function():
    """Jittered backoff floored at the retry-after hint has one
    definition, ``RetryPolicy.delay``: the gateway's client retries and
    the resilience hub's loops both call it."""
    callers = sorted(
        f"{path.relative_to(SRC)}:{fn.name}"
        for path in sorted(SRC.rglob("*.py"))
        for fn in ast.walk(_tree(path)) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "backoff")
    assert callers == ["resil/policy.py:delay"]


def test_the_metalog_is_followed_in_one_place():
    """Engines and storage nodes apply, gap-fill and finish a sealed
    metalog through ``MetalogFollower``, and ask the sequencers by its one
    clock: a second caller of ``delta_set``, a second sender of
    ``seq.fetch_entries``, a second writer of ``stalled_since``,
    ``last_advance`` or ``fetched_at``, or a second definition of a fetch
    delay is a second follower with its own clock."""
    calls, senders, writers, delays = set(), set(), set(), set()
    clock = {"stalled_since", "last_advance", "fetched_at"}
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        if '"seq.fetch_entries"' in path.read_text():
            senders.add(rel)
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "delta_set":
                    calls.add(rel)
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                       else [])
            for t in targets:
                if isinstance(t, ast.Attribute) and t.attr in clock:
                    writers.add(rel)
                if isinstance(t, ast.Name) and t.id in ("STALL_FETCH_DELAY", "TAIL_FETCH_DELAY"):
                    delays.add(rel)
    assert calls == {"core/ordering.py"}
    assert senders == {"core/ordering.py", "core/sequencer.py"}
    assert writers == {"core/ordering.py"}
    assert delays == {"core/ordering.py"}


def test_trims_are_judged_in_one_place():
    """What a trim removes is ``TrimCommand.held_after``'s rule, and the
    index and storage both apply it: a comparison against
    ``until_seqnum`` elsewhere, or a third caller, is a second trim rule
    that can delete a record the other still lists."""
    comparers, callers = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Compare) and any(
                    getattr(operand, "attr", getattr(operand, "id", None)) == "until_seqnum"
                    for operand in [node.left, *node.comparators]):
                comparers.add(rel)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "held_after"):
                callers.add(rel)
    assert comparers == {"core/metalog.py"}
    assert callers == {"core/index.py", "core/storage.py"}


def test_the_measurement_window_is_applied_in_one_place():
    """Closed-loop clients run through ``run_closed_loop``, and whether a
    latency counts is its ``_Requests``' one window rule: outside
    ``workloads/harness.py`` a comparison against the clock or an
    interrupt of a client is a second driver with its own warm-up. The
    latency timeline, which records every op, is the one exception."""
    root = SRC.parents[1]
    paths = [path for path in sorted((SRC / "workloads").glob("*.py"))
             if path.name != "harness.py"]
    paths += sorted((root / "benchmarks").glob("*.py"))
    found = set()
    for path in paths:
        for top in _tree(path).body:
            for node in ast.walk(top):
                interrupts = (isinstance(node, ast.Call)
                              and isinstance(node.func, ast.Attribute)
                              and node.func.attr == "interrupt")
                clocked = isinstance(node, ast.Compare) and any(
                    isinstance(n, ast.Attribute) and n.attr == "now"
                    for n in ast.walk(node))
                if interrupts or clocked:
                    found.add(f"{path.name}:{top.name}")
    assert found == {"microbench.py:append_latency_timeline"}


def test_the_derived_guarantee_checks_are_chosen_in_one_place():
    """Whether a verdict judges store linearizability, queue delivery,
    metalog consistency or the recovery SLO follows from what the run
    recorded, and ``Run.result`` in ``chaos/lifecycle.py`` is the one
    caller of those four checkers: a scenario body that calls one picks
    its verdict's checks by hand."""
    derived = {"check_store_linearizability", "check_queue_delivery",
               "check_metalog", "check_recovery_slo"}
    callers = set()
    for path in sorted((SRC / "chaos").glob("*.py")):
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in derived):
                callers.add(f"{path.name}:{node.func.id}")
    assert callers == {f"lifecycle.py:{name}" for name in derived}


#: Every settable value of the optional layers' entry points, each with
#: the non-test callers that set it to different values: a value stays
#: settable only when two of them need different values, and every other
#: one is a module constant beside the code that reads it.
LAYER_KNOBS = {
    BokiCluster.enable_observability: {},
    ObsRecorder: {},
    KernelProfiler: {},
    BokiCluster.enable_monitoring: {
        "context": "handed to MonitorHub",
    },
    MonitorHub: {
        "context": "each chaos run's scenario and seed; none in "
                   "benchmarks/perf",
    },
    BurnRateRule: {
        "slo": "one SLO per rule of RULES",
        "threshold": "2.0 for availability, 1.0 for the other three RULES",
    },
    BokiCluster.enable_resilience: {},
    BokiCluster.enable_admission: {
        "limiter": "handed to AdmissionController",
    },
    BokiCluster.enable_elasticity: {
        "engine_policy": "handed to Autoscaler",
        "storage_policy": "handed to Autoscaler",
    },
    BokiCluster.enable_tenancy: {},
    Resilience: {},
    AdmissionController: {
        "limiter": "an AdaptiveLimiter(initial=...) in retry-storm-metastable "
                   "and noisy-neighbor-batch-flood and in "
                   "benchmarks/test_tenant_isolation.py; the default elsewhere",
    },
    AdaptiveLimiter: {
        "initial": "16 in retry-storm-metastable; 24 in noisy-neighbor-batch-"
                   "flood and benchmarks/test_tenant_isolation.py; 64 (the "
                   "default) elsewhere",
    },
    Autoscaler: {
        "engine_policy": "fleets of 1-3 and 2-4 engines with different "
                         "scale-in cooldowns in the three elastic scenario "
                         "setups and benchmarks/test_elasticity_autoscale.py",
        "storage_policy": "3-4 nodes in elastic-scale-in-during-partition, "
                          "pinned at 3 in the surge scenarios, the default "
                          "(min ndata) elsewhere",
    },
    PolicyConfig: {
        "breach_down": "10 in elastic-scale-in-during-partition, 1000 in the "
                       "surge scenarios' storage fleet, 6 in Autoscaler's "
                       "default storage policy, 4 elsewhere",
        "cooldown_down": "0.5, 1.0, 2.0 and 10.0 across the elastic setups",
        "min_nodes": "1, 2 or 3 by fleet and scenario",
        "max_nodes": "3 or 4 by fleet and scenario",
    },
    RetryPolicy: {
        "max_attempts": "3 to 8 across the replica, invoke and scenario "
                        "client policies",
        "base_delay": "1 ms to 10 ms, likewise",
        "max_delay": "50 ms to 200 ms, likewise",
        "attempt_timeout": "1 s for invokes, 0.12-0.5 s for scenario "
                           "clients; replica calls keep the engine's own "
                           "per-call timeouts",
        "retry_timeouts": "True at every call site: each states its opt-in "
                          "to retrying ambiguous failures (safety code)",
        "permanent": "FunctionNotFoundError for invokes, none elsewhere",
    },
    RetryBudget: {
        "ratio": "0.25 in flaky-links-retry-storm, 0.2 for every other hub",
        "max_tokens": "200 in flaky-links-retry-storm, 50 elsewhere",
        "initial": "50 in flaky-links-retry-storm, 20 elsewhere",
    },
    TenancyHub: {},
}
#: What an entry point is attached to, not how it behaves.
WIRING = {"self", "env", "net", "streams", "cluster"}


def _settable(entry) -> list:
    """A dataclass's fields, else the parameters of the call, less the
    wiring."""
    if dataclasses.is_dataclass(entry):
        names = [field.name for field in dataclasses.fields(entry)]
    else:
        names = list(inspect.signature(entry).parameters)
    return [name for name in names if name not in WIRING]


@pytest.mark.parametrize("entry", list(LAYER_KNOBS), ids=lambda e: e.__qualname__)
def test_layer_entry_points_take_only_the_listed_knobs(entry):
    assert _settable(entry) == list(LAYER_KNOBS[entry])


#: The same rule on the protocol core: the paper's ablation surface
#: (``BokiConfig``), the cluster and its parts, the support libraries and
#: the workload drivers. Each name lists the non-test callers that set it
#: differently.
CORE_KNOBS = {
    BokiConfig: {
        "ndata": "3 or 5 in benchmarks/test_ablation_replication.py",
        "nmeta": "3, 5 or 7 in the replication ablation, Table 2a and "
                 "Figure 10",
        "cache_bytes": "the Table 7 sweep of cache sizes",
        "metalog_interval": "the metalog-interval ablation's sweep",
        "progress_interval": "min(interval, 0.3 ms) in that ablation",
        "storage_service": "Table 8's storage service time",
        "storage_cpu": "Table 8's storage CPUs",
        "aux_backup": "True in Table 7's second configuration",
    },
    BokiCluster: {
        "num_function_nodes": "1 to 8 across benchmarks and chaos setups",
        "num_storage_nodes": "3 to 16, likewise",
        "num_sequencer_nodes": "3, 6, 8 or 2 x nmeta, likewise",
        "num_logs": "1 to 4 in Table 2b",
        "index_engines_per_log": "2, 4, 8 or the whole fleet, likewise",
        "config": "each ablation benchmark's BokiConfig",
        "seed": "each chaos run's and benchmark's seed",
        "workers_per_node": "4 to 64 across benchmarks and chaos setups",
        "use_coord_sessions": "True in the failure-detecting chaos setups "
                              "and examples/fault_tolerance_demo.py",
        "num_spare_function_nodes": "the elastic setups' and "
                                    "benchmarks/test_elasticity_autoscale.py's "
                                    "scale-out headroom",
        "num_spare_storage_nodes": "none outside tests: the one way to give "
                                   "the autoscaler storage to scale out to",
    },
    Controller: {
        "name": "'controller' from BokiCluster, its one constructor",
        "config": "the cluster's BokiConfig",
    },
    build_term: {
        "config": "the controller's BokiConfig",
        "term_id": "1 at boot, the next term's on reconfiguration",
        "engine_names": "the live engine fleet of each term",
        "storage_names": "the live storage fleet of each term",
        "sequencer_names": "the live sequencers of each term",
        "num_logs": "the cluster's at boot; a reconfiguration's own or the "
                    "outgoing term's",
        "index_engines_per_log": "the cluster's, or a reconfiguration's",
        "prev": "the outgoing term for the autoscaler's minimal-movement "
                "terms, None elsewhere",
    },
    Environment: {},
    Environment.run: {
        "until": "each run's end: BokiCluster.run, the harness's flushes, "
                 "benchmarks/perf's timed windows",
    },
    Network: {},
    FunctionNode: {
        "name": "func-0, func-1, ... from BokiCluster",
        "workers": "the cluster's workers_per_node",
    },
    Gateway: {},
    # A child runs on its parent's (already tenant-scoped) book: a call
    # that names another book could leave the tenant's log space.
    FunctionContext.invoke: {
        "fn_name": "every child call in libs/bokiflow and workloads/social.py",
        "arg": "likewise",
    },
    CoordClient: {
        "node": "the controller's node and each data-plane node's",
    },
    BokiStore: {
        "book": "each store's LogBook",
    },
    Transaction.commit: {},
    WorkflowRuntime: {},
    run_closed_loop: {
        "make_op": "each workload's operation",
        "num_clients": "each workload's client count",
        "duration": "each workload's measured length",
        "obs": "the cluster's recorder when append_only or append_and_read "
               "runs traced, None otherwise",
    },
    append_only: {
        "num_clients": "the client count of Tables 2a, 2b and 8 and the "
                       "ablations",
        "duration": "each benchmark's measured length",
        "book_ids": "Table 2b's and Table 8's book sets",
        "book_weights": "Table 8's Zipf weights",
        "logbook_factory": "Table 8's fixed-sharding placement",
    },
    append_and_read: {
        "num_clients": "Table 3's client count",
        "duration": "Table 3's measured length",
        "force_remote_engine": "True in Table 3's remote-engine row",
        "evict_between_reads": "True in Table 3's cache-miss row",
    },
    ZipfianSampler: {
        "n": "100,000 keys in benchmarks/perf's gateway workloads",
    },
    SQSBackend: {},
    run_queue_workload: {
        "backend": "SQS, Pulsar or BokiQueue in Table 4",
        "num_producers": "Table 4's producer counts",
        "num_consumers": "Table 4's consumer counts",
        "duration": "Table 4's measured length",
    },
}


@pytest.mark.parametrize("entry", list(CORE_KNOBS), ids=lambda e: e.__qualname__)
def test_core_entry_points_take_only_the_listed_knobs(entry):
    assert _settable(entry) == list(CORE_KNOBS[entry])


def test_every_config_field_is_read():
    """A ``BokiConfig`` field that no code reads is a value a run can set
    without changing anything."""
    read = {node.attr
            for path in sorted(SRC.rglob("*.py")) if path != SRC / "core" / "config.py"
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [field.name for field in dataclasses.fields(BokiConfig)
              if field.name not in read]
    assert unread == []
