"""The artifact spine: one serialisation, one writer, one gate.

Three document families are pure functions of scenario and seed —
``repro.bench/1`` benchmark artifacts, ``repro.chaos/2`` verdicts and
``repro.monitor/1`` flight records. Being deterministic, the only gate
they need is equality with the committed copy; noisy host-time
measurements have their own instrument and comparator
(``benchmarks/perf``) and never appear in these documents.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterator, List, Tuple


def canonical_json(doc: Any) -> str:
    """The one byte-exact form: sorted keys, two-space indent, one
    trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_json(doc: Any, directory: str, filename: str) -> str:
    """Write ``doc`` canonically as ``directory/filename`` (directory
    created); returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, filename)
    with open(path, "w") as handle:
        handle.write(canonical_json(doc))
    return path


def json_names(directory: str) -> List[str]:
    """The ``.json`` file names in ``directory``, sorted."""
    return sorted(n for n in os.listdir(directory) if n.endswith(".json"))


def _leaves(node: Any, path: str = "") -> Iterator[Tuple[str, str]]:
    """``(dotted path, JSON text)`` of every scalar (or empty container)."""
    if isinstance(node, dict) and node:
        for key in sorted(node):
            yield from _leaves(node[key], f"{path}.{key}" if path else key)
    elif isinstance(node, list) and node:
        for i, item in enumerate(node):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, json.dumps(node)


def mismatches(committed_dir: str, fresh_dir: str) -> List[str]:
    """One line per committed ``.json`` that ``fresh_dir`` does not
    reproduce byte for byte: the file was not regenerated, or it differs —
    then one line per JSON leaf that moved, ready to paste as a proof line
    (``unit_append.json: metrics.append.p50_ms.value: 0.31 -> 0.32``).

    One-sided on purpose: files only ``fresh_dir`` has are not an error
    (a run may emit more than was ever committed)."""
    names = json_names(committed_dir)
    lines = [] if names else [f"{committed_dir}: no committed .json files"]
    for name in names:
        fresh_path = os.path.join(fresh_dir, name)
        if not os.path.exists(fresh_path):
            lines.append(f"{name}: not regenerated")
            continue
        with open(os.path.join(committed_dir, name)) as handle:
            committed = handle.read()
        with open(fresh_path) as handle:
            fresh = handle.read()
        if committed == fresh:
            continue
        old = dict(_leaves(json.loads(committed)))
        new = dict(_leaves(json.loads(fresh)))
        moved = [
            f"{name}: {path}: {old.get(path, '<absent>')} -> {new.get(path, '<absent>')}"
            for path in [*old, *(p for p in new if p not in old)]
            if old.get(path) != new.get(path)
        ]
        lines.extend(moved or [f"{name}: bytes differ, JSON leaves equal"])
    return lines
