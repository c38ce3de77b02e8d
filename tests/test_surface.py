"""Nothing public that only its own tests reach.

A public function, class or method of ``src/repro`` must be named
somewhere in ``src/`` (outside its own definition and the ``__init__``
re-exports), ``benchmarks/`` or ``examples/`` — as a ``Name``, an
``Attribute``, an import, or a string that is one identifier (``TAPS``,
``getattr``). What production, the benchmarks and the
examples never touch is either deleted with its tests or listed in
``ALLOWED`` with the reason it stays; an allowlisted class covers its
methods. The scan matches names, not bindings, so it under-reports
(``Foo.get`` is "reached" by any ``.get``) — it is a floor under the
surface, not a proof of use.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: name -> why it stays although no production, benchmark or example
#: code names it.
ALLOWED = {
    # The paper's API that no workload happens to exercise.
    "LeaderElection": "paper §4.5: the controllers' ephemeral-znode election",
    "close_session": "paper §4.5: ZooKeeper session API; an explicit close "
                     "drops ephemerals without waiting for the expiry",
    "reclaim_shard": "paper §5.3: CSMR shard handoff from a crashed consumer",
    "DurableList": "paper §2.1/§8: Tango-style structures over BokiStore",
    "DurableRegister": "paper §2.1/§8: Tango-style structures over BokiStore",
    "delete_field": "paper §5.2: JSON-path delete inside a transaction",
    "heal": "the inverse of Network.partition: tests cut one link and heal "
            "it mid-run (coord sessions, engine edge cases, resilience paths)",
    # References the tests compare production against.
    "position_of": "reference for tests/core: delta_set without the expansion",
    "count_moves": "reference for tests/elastic: what a rebalance cost",
    "optimal_moves": "reference for tests/elastic: the lower bound on moves",
    "classify": "reference for tests/resil: the failure kinds should_retry "
                "and is_overload split on, named",
    # Debugging tools: nothing calls them until someone needs to look.
    "dump_slowest_trace": "debugging tool: Chrome trace + critical path of "
                          "the slowest request (docs, verify skill)",
    "write_chrome_trace": "debugging tool: trace file for chrome://tracing",
    "monitor_instants": "debugging tool: monitor events as trace instants",
    "trace_spans": "debugging tool: one trace's finished spans in start order",
    "report_lines": "debugging tool: KernelProfiler's text report "
                    "(tests/conftest.count_events prints it)",
    # Two-line accessors dozens of tests use.
    "engine_of": "accessor: cluster.engines[name], 40+ uses in tests/",
    "run_scenario": "accessor: verdict(execute(...)), the tests' entry point "
                    "to a chaos scenario",
}


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def _registered_scenario(node) -> bool:
    """Chaos scenarios are reached through the registry their decorator
    fills (``python -m repro.chaos run NAME``), never by function name."""
    return any(isinstance(dec, ast.Call) and getattr(dec.func, "id", "") == "scenario"
               for dec in node.decorator_list)


def definitions(src: Path = SRC):
    """``(name, owner class or None, relative path, line)`` of every public
    top-level function, class, and method of a public class."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src)
        for node in _tree(path).body:
            if (not isinstance(node, defs) or node.name.startswith("_")
                    or _registered_scenario(node)):
                continue
            yield node.name, None, rel, node.lineno
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (isinstance(member, ast.FunctionDef)
                            and not member.name.startswith("_")):
                        yield member.name, node.name, rel, member.lineno


@functools.lru_cache(maxsize=None)  # both tests ask; parse the tree once
def references(root: Path = ROOT):
    """Every identifier that ``src/``, ``benchmarks/`` and ``examples/``
    mention: names, attributes, imported names, and string constants that
    are one identifier. A package ``__init__`` only passes names on, so
    its imports and ``__all__`` do not count."""
    seen = set()
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((root / top).rglob("*.py")):
            reexports = path.name == "__init__.py" and top == "src"
            for node in ast.walk(_tree(path)):
                if isinstance(node, ast.Name):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    seen.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)) and not reexports:
                    seen.update(alias.name.rpartition(".")[2] for alias in node.names)
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and node.value.isidentifier() and not reexports):
                    seen.add(node.value)
    return seen


def unreached(root: Path = ROOT):
    seen = references(root)
    return sorted(
        f"{rel}:{line} {owner + '.' if owner else ''}{name}"
        for name, owner, rel, line in definitions(root / "src" / "repro")
        if name not in seen and name not in ALLOWED and owner not in ALLOWED)


def test_every_public_name_is_reached_or_allowlisted():
    missing = unreached()
    assert not missing, (
        "public names that nothing in src/, benchmarks/ or examples/ reaches "
        "(delete them with their tests, or add an ALLOWED entry with the "
        "reason they stay):\n  " + "\n  ".join(missing))


def test_allowlist_is_short_reasoned_and_current():
    assert len(ALLOWED) <= 30
    assert all(reason.strip() for reason in ALLOWED.values())
    defined = {name for name, _owner, _rel, _line in definitions()}
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)
    stale = sorted(set(ALLOWED) & references())
    assert not stale, f"reached now, drop from ALLOWED: {stale}"
