"""Pass 1 — SPMD correctness lint over the extracted comm graph.

The classic SPMD bugs this pass flags, each of which the runtime only
surfaces as a deadlock timeout (or silent byte drift) at scale:

``spmd-divergent-collective``
    A collective issued under a rank-dependent branch whose other arm has
    a *different* collective sequence.  Ranks taking different arms then
    enter different collectives — the canonical SPMD deadlock.  Branching
    on the rank is fine for point-to-point traffic (that is how pairs
    match); it is the *collective order* that must be rank-invariant.

``spmd-orphan-recv``
    A blocking ``recv`` (or posted ``irecv``) whose tag has no
    syntactically matching ``send``/``isend``/``sendrecv`` in any call
    closure that contains the receive.  Nothing can ever satisfy it.

``spmd-collective-mismatch``
    Rooted collectives within one function and accounting phase whose
    literal ``root`` arguments disagree (gather to 0, bcast from 1), or
    reductions whose explicit ``op`` literals disagree.  These almost
    always mean one call site was edited and its twin forgotten.

``spmd-self-send``
    Peer arithmetic that statically folds to the caller's own rank on a
    *blocking* primitive (``send``/``recv``/``sendrecv``).  The
    non-blocking primitives are exempt: a program may legitimately
    self-post an ``isend``/``irecv`` pair.

Suppression: ``# lint: spmd-ok(<rule>)`` on the finding's line or the
line above (see docs/ANALYSIS.md).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple, Union

from .commgraph import PackageIndex, collective_sequence, transitive_closure
from .model import (
    COLLECTIVE_METHODS,
    REDUCING_METHODS,
    ROOTED_METHODS,
    Finding,
    FunctionSummary,
)

__all__ = ["run_spmd_pass"]

_BLOCKING_P2P = frozenset({"send", "recv", "sendrecv"})
_SENDING = frozenset({"send", "isend", "sendrecv"})
_RECEIVING = frozenset({"recv", "irecv"})

#: symbolic value of a peer expression: the caller's rank, a constant, or unknown
_RANK = "<rank>"
_Sym = Union[str, int, None]


def run_spmd_pass(index: PackageIndex) -> List[Finding]:
    """Run all four SPMD rules over every rank program in the index."""
    findings: List[Finding] = []
    for key, summary in sorted(index.functions.items()):
        if summary.comm_param is None:
            continue
        node = index.nodes[key]
        checker = _FunctionChecker(index, summary, node)
        findings.extend(checker.check())
    findings.extend(_orphan_recv_pass(index))
    return findings


# ---------------------------------------------------------------------------
# per-function rules (divergence, root/op mismatch, self-send)
# ---------------------------------------------------------------------------

class _FunctionChecker:
    """Walk one rank program's AST applying the per-function SPMD rules."""

    def __init__(
        self, index: PackageIndex, summary: FunctionSummary, node: ast.AST
    ) -> None:
        self.index = index
        self.summary = summary
        self.node = node
        self.comm = summary.comm_param
        self.aliases = _rank_aliases(node, self.comm)
        self.findings: List[Finding] = []

    def check(self) -> List[Finding]:
        """Apply divergence + self-send (one walk) and the mismatch rule."""
        self._seq_of_stmts(getattr(self.node, "body", []))
        self._check_mismatches()
        return self.findings

    # ------------------------------------------------------------ divergence
    def _seq_of_stmts(self, stmts: List[ast.stmt]) -> List[str]:
        """Collective sequence of a statement list, emitting findings."""
        seq: List[str] = []
        for stmt in stmts:
            seq.extend(self._seq_of_stmt(stmt))
        return seq

    def _seq_of_stmt(self, stmt: ast.stmt) -> List[str]:
        if isinstance(stmt, ast.If):
            head = self._seq_of_expr(stmt.test)
            body = self._seq_of_stmts(stmt.body)
            orelse = self._seq_of_stmts(stmt.orelse)
            if body != orelse and self._rank_dependent(stmt.test):
                self.findings.append(
                    Finding(
                        rule="spmd-divergent-collective",
                        path=self.summary.path,
                        line=stmt.lineno,
                        message=(
                            "collective sequence diverges across a "
                            f"rank-dependent branch: one arm issues {body or '[]'}, "
                            f"the other {orelse or '[]'} — ranks taking different "
                            "arms will enter different collectives (deadlock risk)"
                        ),
                        context=self.summary.key,
                    )
                )
            return head + (body if len(body) >= len(orelse) else orelse)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return (
                self._seq_of_expr(stmt.iter)
                + self._seq_of_stmts(stmt.body)
                + self._seq_of_stmts(stmt.orelse)
            )
        if isinstance(stmt, ast.While):
            return (
                self._seq_of_expr(stmt.test)
                + self._seq_of_stmts(stmt.body)
                + self._seq_of_stmts(stmt.orelse)
            )
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            seq: List[str] = []
            for item in stmt.items:
                seq.extend(self._seq_of_expr(item.context_expr))
            return seq + self._seq_of_stmts(stmt.body)
        if isinstance(stmt, ast.Try):
            seq = self._seq_of_stmts(stmt.body)
            for handler in stmt.handlers:
                seq.extend(self._seq_of_stmts(handler.body))
            seq.extend(self._seq_of_stmts(stmt.orelse))
            seq.extend(self._seq_of_stmts(stmt.finalbody))
            return seq
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return []  # nested defs are summarised separately
        seq = []
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                seq.extend(self._seq_of_expr(child))
        return seq

    def _seq_of_expr(self, expr: ast.expr) -> List[str]:
        """DFS-preorder collective sequence of one expression tree.

        Mirrors the extractor's traversal order so spliced callee
        sequences line up with :func:`collective_sequence`.  The self-send
        rule piggybacks on the same walk.
        """
        seq: List[str] = []
        if isinstance(expr, ast.Call):
            func = expr.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == self.comm
            ):
                if func.attr in COLLECTIVE_METHODS:
                    seq.append(func.attr)
                if func.attr in _BLOCKING_P2P:
                    self._check_self_send(func.attr, expr)
            else:
                target = self.index.resolve_call(self.summary.module, func)
                if target is not None:
                    seq.extend(collective_sequence(self.index, target))
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr) and not (
                isinstance(expr, ast.Call) and child is expr.func
            ):
                seq.extend(self._seq_of_expr(child))
            elif isinstance(child, (ast.keyword,)):
                seq.extend(self._seq_of_expr(child.value))
            elif isinstance(child, ast.comprehension):
                seq.extend(self._seq_of_expr(child.iter))
                for cond in child.ifs:
                    seq.extend(self._seq_of_expr(cond))
        return seq

    def _rank_dependent(self, expr: ast.expr) -> bool:
        """Whether a branch condition can differ across ranks."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Attribute) and node.attr == "rank":
                return True
            if isinstance(node, ast.Name) and (
                node.id in self.aliases or node.id == "rank"
            ):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "is_root"
            ):
                return True
        return False

    # ------------------------------------------------------------ self-send
    def _check_self_send(self, method: str, call: ast.Call) -> None:
        peer = _peer_argument(method, call)
        if peer is None:
            return
        if _fold(peer, self.aliases, self.comm) == _RANK:
            self.findings.append(
                Finding(
                    rule="spmd-self-send",
                    path=self.summary.path,
                    line=call.lineno,
                    message=(
                        f"blocking {method} addressed to the caller's own rank "
                        f"(peer expression {ast.unparse(peer)!r} folds to "
                        "comm.rank); a blocking self-post can never be satisfied"
                    ),
                    context=self.summary.key,
                )
            )

    # ------------------------------------------------------------ mismatches
    def _check_mismatches(self) -> None:
        roots: Dict[str, Tuple[str, int, str]] = {}
        ops: Dict[str, Tuple[str, int, str]] = {}
        for event in self.summary.events:
            if event.method in ROOTED_METHODS and _is_int_literal(event.root):
                seen = roots.get(event.phase)
                if seen is None:
                    roots[event.phase] = (event.root, event.line, event.method)
                elif seen[0] != event.root:
                    self.findings.append(
                        Finding(
                            rule="spmd-collective-mismatch",
                            path=self.summary.path,
                            line=event.line,
                            message=(
                                f"{event.method} uses root={event.root} but "
                                f"{seen[2]} at line {seen[1]} of the same phase "
                                f"({event.phase or 'unlabelled'}) uses "
                                f"root={seen[0]}; rooted collectives of one "
                                "phase must agree on the root"
                            ),
                            context=self.summary.key,
                        )
                    )
            if event.method in REDUCING_METHODS and event.op is not None:
                seen = ops.get(event.phase)
                if seen is None:
                    ops[event.phase] = (event.op, event.line, event.method)
                elif seen[0] != event.op:
                    self.findings.append(
                        Finding(
                            rule="spmd-collective-mismatch",
                            path=self.summary.path,
                            line=event.line,
                            message=(
                                f"{event.method} uses op={event.op} but "
                                f"{seen[2]} at line {seen[1]} of the same phase "
                                f"({event.phase or 'unlabelled'}) uses "
                                f"op={seen[0]}; mixed reduction operators in "
                                "one phase usually mean an edited twin call"
                            ),
                            context=self.summary.key,
                        )
                    )


def _peer_argument(method: str, call: ast.Call) -> Optional[ast.expr]:
    """The destination/source expression of a p2p call, if present."""
    position = {"send": 1, "recv": 0, "sendrecv": 1}[method]
    keyword_names = {"send": "dest", "recv": "source", "sendrecv": "peer"}
    for keyword in call.keywords:
        if keyword.arg == keyword_names[method]:
            return keyword.value
    if len(call.args) > position:
        return call.args[position]
    return None


def _rank_aliases(node: ast.AST, comm: Optional[str]) -> Set[str]:
    """Names assigned from ``comm.rank`` anywhere in the function body."""
    aliases: Set[str] = set()
    if comm is None:
        return aliases

    def is_rank_attr(expr: ast.expr) -> bool:
        return (
            isinstance(expr, ast.Attribute)
            and expr.attr == "rank"
            and isinstance(expr.value, ast.Name)
            and expr.value.id == comm
        )

    for stmt in ast.walk(node):
        if not isinstance(stmt, ast.Assign):
            continue
        for target in stmt.targets:
            if isinstance(target, ast.Name) and is_rank_attr(stmt.value):
                aliases.add(target.id)
            elif isinstance(target, ast.Tuple) and isinstance(stmt.value, ast.Tuple):
                for t, v in zip(target.elts, stmt.value.elts):
                    if isinstance(t, ast.Name) and is_rank_attr(v):
                        aliases.add(t.id)
    return aliases


def _fold(expr: ast.expr, aliases: Set[str], comm: Optional[str]) -> _Sym:
    """Constant-fold a peer expression over the symbol ``comm.rank``.

    Returns :data:`_RANK` when the expression is identically the caller's
    rank (through ``+0``/``-0``/``^0``/``*1``-style arithmetic), an ``int``
    for constants, and ``None`` for anything genuinely rank-varying.
    """
    if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
        return expr.value
    if isinstance(expr, ast.Name) and (expr.id in aliases or expr.id == "rank"):
        return _RANK
    if (
        isinstance(expr, ast.Attribute)
        and expr.attr == "rank"
        and isinstance(expr.value, ast.Name)
        and expr.value.id == comm
    ):
        return _RANK
    if isinstance(expr, ast.BinOp):
        left = _fold(expr.left, aliases, comm)
        right = _fold(expr.right, aliases, comm)
        if isinstance(left, int) and isinstance(right, int):
            try:
                return _apply_binop(expr.op, left, right)
            except (ZeroDivisionError, ValueError, TypeError):
                return None
        if left == _RANK and isinstance(right, int):
            if right == 0 and isinstance(expr.op, (ast.Add, ast.Sub, ast.BitXor)):
                return _RANK
            if right == 1 and isinstance(expr.op, (ast.Mult, ast.FloorDiv)):
                return _RANK
        if right == _RANK and isinstance(left, int):
            if left == 0 and isinstance(expr.op, (ast.Add, ast.BitXor)):
                return _RANK
            if left == 1 and isinstance(expr.op, ast.Mult):
                return _RANK
    return None


def _apply_binop(op: ast.operator, left: int, right: int) -> Optional[int]:
    if isinstance(op, ast.Add):
        return left + right
    if isinstance(op, ast.Sub):
        return left - right
    if isinstance(op, ast.Mult):
        return left * right
    if isinstance(op, ast.FloorDiv):
        return left // right
    if isinstance(op, ast.Mod):
        return left % right
    if isinstance(op, ast.BitXor):
        return left ^ right
    return None


def _is_int_literal(text: Optional[str]) -> bool:
    if text is None:
        return False
    try:
        int(text)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# orphan receives (closure-level matching)
# ---------------------------------------------------------------------------

def _orphan_recv_pass(index: PackageIndex) -> List[Finding]:
    """Flag receives whose tag no send matches in any containing closure.

    A receive in helper ``H`` is fine when *some* function's call closure
    contains both the receive and a tag-matching send (the caller pairs
    them); it is orphaned only when no such closure exists anywhere in the
    scanned tree.
    """
    closures: Dict[str, Set[str]] = {
        key: set(transitive_closure(index, key)) for key in index.functions
    }
    send_tags: Dict[str, Set[str]] = {}
    for key, summary in index.functions.items():
        tags = {
            event.tag
            for event in summary.events
            if event.method in _SENDING and event.tag is not None
        }
        send_tags[key] = tags

    findings: List[Finding] = []
    for key, summary in sorted(index.functions.items()):
        for event in summary.events:
            if event.method not in _RECEIVING or event.tag is None:
                continue
            matched = False
            for owner, members in closures.items():
                if key not in members:
                    continue
                if any(event.tag in send_tags[member] for member in members):
                    matched = True
                    break
            if not matched:
                findings.append(
                    Finding(
                        rule="spmd-orphan-recv",
                        path=summary.path,
                        line=event.line,
                        message=(
                            f"{event.method} with tag {event.tag} has no "
                            "syntactically matching send/isend/sendrecv in any "
                            "call closure containing it; no rank path can ever "
                            "satisfy this receive"
                        ),
                        context=summary.key,
                    )
                )
    return findings
