"""Docs gate: the public API surface must stay docstring-covered.

A dependency-free twin of ``interrogate`` (which CI's docs-lint job also
runs): walks every module under ``src/repro`` with ``ast`` and counts
docstrings on modules, public classes, public functions and public methods.
Two assertions keep documentation from regressing:

* the named public entry points (the ones README and the docs promise) must
  each be documented, individually;
* overall public-surface coverage must stay at or above the floor.

The floor is set at the coverage this PR established; raise it if you push
coverage higher, never lower it.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterator, List, Tuple

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

# Coverage achieved by PR 3; regressions below this fail the suite.
COVERAGE_FLOOR = 0.95

# The promised public API surface: every one of these must be documented.
REQUIRED = {
    "repro/dist/api.py": [
        "SortResult",
        "RankOutput",
        "distribute_strings",
        "ms_sort",
        "pdms_sort",
        "fkmerge_sort",
    ],
    "repro/session/cluster.py": ["Cluster", "Cluster.sort", "Cluster.sort_batches"],
    "repro/config.py": ["RunConfig", "RunConfig.from_env", "RunConfig.override"],
    "repro/session/specs.py": [
        "SortSpec",
        "SortSpec.to_dict",
        "SortSpec.from_dict",
        "SortSpec.config_hash",
    ],
    "repro/session/registry.py": [
        "AlgorithmRegistry",
        "AlgorithmEntry",
        "register_algorithm",
        "default_registry",
    ],
    "repro/session/stream.py": ["BatchStream"],
    "repro/dist/exchange.py": [
        "exchange_buckets",
        "StringBlock",
        "LcpCompressedBlock",
    ],
    "repro/mpi/engine.py": [
        "run_spmd",
        "ThreadComm",
        "ThreadEngine",
        "ThreadEngine.run",
        "get_engine",
        "register_engine",
    ],
    "repro/mpi/comm.py": ["Communicator", "Request", "waitall"],
    "repro/strings/stringset.py": ["StringSet"],
    "repro/strings/packed.py": ["PackedStringArray"],
    "repro/net/metrics.py": [
        "TrafficReport",
        "TrafficMeter",
        "TrafficReport.fold",
        "TrafficReport.merged",
    ],
    "repro/net/cost_model.py": ["MachineModel"],
}


def _public_nodes(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """Yield ``(qualified name, node)`` for the module's public surface."""
    yield "<module>", tree
    for node in tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub


def _coverage() -> Tuple[int, int, List[str]]:
    total = documented = 0
    missing: List[str] = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        rel = path.relative_to(SRC.parent).as_posix()
        for name, node in _public_nodes(tree):
            total += 1
            if ast.get_docstring(node):
                documented += 1
            else:
                missing.append(f"{rel}:{getattr(node, 'lineno', 0)} {name}")
    return total, documented, missing


def test_required_api_is_documented():
    for rel, names in REQUIRED.items():
        tree = ast.parse((SRC.parent / rel).read_text())
        public = {name: node for name, node in _public_nodes(tree)}
        for name in names:
            assert name in public, f"{rel}: promised API {name!r} disappeared"
            assert ast.get_docstring(public[name]), (
                f"{rel}: public API {name!r} has no docstring"
            )


def test_public_surface_coverage_floor():
    total, documented, missing = _coverage()
    assert total > 200, "docstring walker found suspiciously few definitions"
    coverage = documented / total
    assert coverage >= COVERAGE_FLOOR, (
        f"public docstring coverage {coverage:.1%} fell below the "
        f"{COVERAGE_FLOOR:.0%} floor; undocumented:\n  " + "\n  ".join(missing)
    )
