"""Both arms of every rank-dependent branch run under the conformance corpus.

The runtime names a mismatched collective only on a path that executes.
This gate finds every ``if`` whose condition reads ``comm.rank``, a rank
alias (``rank = comm.rank``) or ``comm.is_root()`` inside the rank programs
of ``src/repro/dist`` and ``src/repro/net``, then reads the session's
``corpus_trace`` (``tests/conftest.py``: the conformance corpus sorted with
the six paper algorithms at p in {3, 4} over every exchange topology on
the threads engine, tracing the lines of the rank threads) and asserts that each such branch took its true arm and its false arm.  p = 3
is needed: at p = 4 hQuick's non-power-of-two fold never runs.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Set

import pytest

from engine_conformance import RANK_PROGRAM_PACKAGES, SRC


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
    for package in RANK_PROGRAM_PACKAGES:
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


def fell_through(branch: Branch, steps) -> bool:
    """Whether a frame went from ``branch``'s test past its (empty) false arm:
    on to a line other than the body's, or out of the function."""
    return any(
        path == branch.path
        and line in branch.test_lines
        and after not in branch.test_lines
        and after != branch.true_line
        for path, line, after in steps
    )


def test_the_finder_sees_the_known_branches():
    # hQuick's fold and subcube tests, the root-only splitter sort, and the
    # router's self-delivery and arrival dispatch
    files = {str(Path(b.path).relative_to(SRC)) for b in BRANCHES}
    assert files == {
        "dist/hquick.py",
        "dist/splitters.py",
        "net/router.py",
    }, BRANCHES
    assert len(BRANCHES) >= 7, BRANCHES


@pytest.mark.parametrize("branch", BRANCHES, ids=repr)
def test_both_arms_run(corpus_trace, branch):
    executed = corpus_trace.lines
    assert (branch.path, branch.true_line) in executed, f"{branch}: true arm never ran"
    if branch.false_line is None:
        assert fell_through(branch, corpus_trace.steps), f"{branch}: false arm never ran"
    else:
        assert (branch.path, branch.false_line) in executed, (
            f"{branch}: false arm never ran"
        )
