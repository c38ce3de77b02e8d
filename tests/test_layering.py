"""The protocol files know nothing of the optional layers.

Observability, monitoring, resilience, admission and tenancy attach from
outside through ``repro.sim.seam`` (signals + declared wrap points). This
guard keeps layer attributes, enabled-flag tests and the deleted wrapper
halves from creeping back into the files that implement Figures 2 and 4.
"""

import ast
from pathlib import Path

import pytest

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
