"""Both arms of every rank-dependent branch run under the conformance corpus.

The runtime names a mismatched collective only on a path that executes.
This gate finds every ``if`` whose condition reads ``comm.rank``, a rank
alias (``rank = comm.rank``) or ``comm.is_root()`` inside the rank programs
of ``src/repro/dist`` and ``src/repro/net``, then sorts the conformance
corpus with the six paper algorithms plus ``auto`` at p in {3, 4} over
every exchange topology on the threads engine, tracing lines, and asserts
that each such branch took its true arm and its false arm.  p = 3 is
needed: at p = 4 hQuick's non-power-of-two fold never runs.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

from engine_conformance import PAPER_ALGORITHMS, TOPOLOGIES, conformance_workload
from repro.session import Cluster, default_registry

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
PACKAGES = ("dist", "net")
ALGORITHMS = PAPER_ALGORITHMS + ("auto",)
NUM_PES = (3, 4)


class Branch:
    """One rank-dependent ``if`` and the lines that show which arm ran."""

    def __init__(self, path: str, node: ast.If):
        self.path = path
        self.line = node.lineno
        self.test_lines = set(range(node.lineno, node.test.end_lineno + 1))
        self.true_line = node.body[0].lineno
        #: first line of the else arm, or None when the false arm is empty
        self.false_line = node.orelse[0].lineno if node.orelse else None

    def __repr__(self) -> str:
        return f"{Path(self.path).relative_to(SRC)}:{self.line}"


def _reads_rank(test: ast.expr, aliases: Set[str]) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Name) and node.id in aliases:
            return True
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "comm"
            and node.attr in ("rank", "is_root")
        ):
            return True
    return False


def _own_nodes(fn: ast.AST):
    """The nodes of ``fn``'s body, not descending into nested definitions."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _is_comm_rank(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Attribute)
        and expr.attr == "rank"
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "comm"
    )


def find_rank_branches() -> List[Branch]:
    """Every ``if`` on the rank inside a function taking ``comm``."""
    branches: List[Branch] = []
    for package in PACKAGES:
        for path in sorted((SRC / package).glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for fn in ast.walk(tree):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if "comm" not in [a.arg for a in fn.args.args + fn.args.kwonlyargs]:
                    continue
                aliases: Set[str] = set()
                for node in _own_nodes(fn):
                    if not isinstance(node, ast.Assign):
                        continue
                    for target in node.targets:
                        pairs = (
                            zip(target.elts, node.value.elts)
                            if isinstance(target, ast.Tuple)
                            and isinstance(node.value, ast.Tuple)
                            else [(target, node.value)]
                        )
                        for name, value in pairs:
                            if isinstance(name, ast.Name) and _is_comm_rank(value):
                                aliases.add(name.id)
                branches.extend(
                    Branch(str(path), node)
                    for node in _own_nodes(fn)
                    if isinstance(node, ast.If)
                    and _reads_rank(node.test, aliases)
                )
    return sorted(branches, key=lambda b: (b.path, b.line))


BRANCHES = find_rank_branches()


def trace_arms(branches: List[Branch]) -> Tuple[Set[Tuple[str, int]], Set[Branch]]:
    """Sort the corpus over the whole grid while tracing the branches' files.

    Returns the executed ``(path, line)`` pairs and the branches whose
    empty false arm ran (the line after the test was not the body).
    """
    by_path: Dict[str, List[Branch]] = {}
    for branch in branches:
        by_path.setdefault(branch.path, []).append(branch)
    executed: Set[Tuple[str, int]] = set()
    fell_through: Set[Branch] = set()

    def local_tracer(path: str):
        watched = [b for b in by_path[path] if b.false_line is None]
        last = [0]

        def tracer(frame, event, arg):
            line = frame.f_lineno
            if event in ("line", "return"):
                for branch in watched:
                    if (
                        last[0] in branch.test_lines
                        and line not in branch.test_lines
                        and (event == "return" or line != branch.true_line)
                    ):
                        fell_through.add(branch)
                if event == "line":
                    executed.add((path, line))
                    last[0] = line
            return tracer

        return tracer

    def global_tracer(frame, event, arg):
        path = frame.f_code.co_filename
        return local_tracer(path) if path in by_path else None

    corpus = conformance_workload()
    registry = default_registry()
    threading.settrace(global_tracer)
    sys.settrace(global_tracer)
    try:
        for p in NUM_PES:
            for topology in TOPOLOGIES:
                with Cluster(num_pes=p, engine="threads", exchange_topology=topology) as cluster:
                    for algorithm in ALGORITHMS:
                        spec = registry.spec_class(algorithm)(seed=3)
                        cluster.sort(corpus, spec, check=True)
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    return executed, fell_through


@pytest.fixture(scope="module")
def traced():
    return trace_arms(BRANCHES)


def test_the_finder_sees_the_known_branches():
    # hQuick's fold and subcube tests, the root-only estimator and splitter
    # sort, and the router's self-delivery and arrival dispatch
    files = {str(Path(b.path).relative_to(SRC)) for b in BRANCHES}
    assert files == {
        "dist/hquick.py",
        "dist/dn_estimator.py",
        "dist/splitters.py",
        "net/router.py",
    }, BRANCHES
    assert len(BRANCHES) >= 8, BRANCHES


@pytest.mark.parametrize("branch", BRANCHES, ids=repr)
def test_both_arms_run(traced, branch):
    executed, fell_through = traced
    assert (branch.path, branch.true_line) in executed, f"{branch}: true arm never ran"
    if branch.false_line is None:
        assert branch in fell_through, f"{branch}: false arm never ran"
    else:
        assert (branch.path, branch.false_line) in executed, (
            f"{branch}: false arm never ran"
        )
