"""Data model of the static analyzer: events, summaries, findings.

The analyzer (see :mod:`repro.analysis.runner`) parses the ``repro``
package with Python's own :mod:`ast` — no third-party parser — and turns
every function that takes a ``comm`` parameter (the SPMD rank-program
convention established by :class:`repro.mpi.comm.Communicator`) into a
:class:`FunctionSummary`: its communication call sites
(:class:`CommEvent`), the repro-internal functions it calls, and enough
location data to report findings.  The lint passes
(:mod:`~repro.analysis.spmd`, :mod:`~repro.analysis.wire`,
:mod:`~repro.analysis.toggles`) consume these summaries and emit
:class:`Finding` objects; :class:`LintReport` aggregates them with
deterministic ordering so two runs over the same tree render identical
human and JSON output.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "COLLECTIVE_METHODS",
    "P2P_METHODS",
    "CommEvent",
    "FunctionSummary",
    "ModuleInfo",
    "Finding",
    "LintReport",
    "SuppressionIndex",
]

#: ``Communicator`` methods every rank must reach in the same order
#: (``record_exchange_collective`` documents "must be called by all ranks at
#: the same program point", so it counts as a collective in the comm graph).
COLLECTIVE_METHODS = frozenset(
    {
        "barrier",
        "bcast",
        "gather",
        "scatter",
        "allgather",
        "allreduce",
        "alltoall",
        "reduce",
        "record_exchange_collective",
    }
)

#: point-to-point ``Communicator`` methods (matched pairwise, never
#: sequence-checked across ranks).
P2P_METHODS = frozenset({"send", "recv", "sendrecv", "isend", "irecv"})

#: rooted collectives whose ``root`` literals the mismatch rule compares.
ROOTED_METHODS = frozenset({"bcast", "gather", "scatter", "reduce"})

#: reducing collectives whose ``op`` literals the mismatch rule compares.
REDUCING_METHODS = frozenset({"reduce", "allreduce"})


@dataclass(frozen=True)
class CommEvent:
    """One communication call site inside a rank program or helper.

    ``root``, ``op``, ``tag`` and ``peer`` hold the *unparsed source text*
    of the respective argument expression (or ``None`` where the method has
    no such argument), so comparing them — e.g. the ``root`` literals of
    one phase — is exact and needs no evaluation.
    """

    method: str
    module: str
    qualname: str
    line: int
    phase: str = ""
    root: Optional[str] = None
    op: Optional[str] = None
    tag: Optional[str] = None
    peer: Optional[str] = None

    @property
    def is_collective(self) -> bool:
        """Whether every rank must issue this call in the same order."""
        return self.method in COLLECTIVE_METHODS

    @property
    def is_p2p(self) -> bool:
        """Whether this is a point-to-point post (matched, not ordered)."""
        return self.method in P2P_METHODS

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form with deterministic key order (sorted at dump)."""
        out: Dict[str, object] = {
            "method": self.method,
            "module": self.module,
            "qualname": self.qualname,
            "line": self.line,
            "kind": "collective" if self.is_collective else "p2p",
        }
        if self.phase:
            out["phase"] = self.phase
        for key, value in (
            ("root", self.root),
            ("op", self.op),
            ("tag", self.tag),
            ("peer", self.peer),
        ):
            if value is not None:
                out[key] = value
        return out


@dataclass
class FunctionSummary:
    """Per-function communication summary plus its repro-internal call edges."""

    module: str
    qualname: str
    line: int
    path: str
    comm_param: Optional[str]
    events: List[CommEvent] = field(default_factory=list)
    #: fully qualified ``module:qualname`` keys of resolved repro callees,
    #: in call-site order (duplicates preserved — splicing is positional)
    calls: List[str] = field(default_factory=list)
    #: events and call edges interleaved in AST traversal order:
    #: ``("event", <method>)`` / ``("call", <module:qualname>)`` tuples
    effects: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def key(self) -> str:
        """The index key (``module:qualname``) of this function."""
        return f"{self.module}:{self.qualname}"


@dataclass
class ModuleInfo:
    """One parsed source file: its dotted name, path, AST and source lines."""

    module: str
    path: str
    tree: object
    source: str

    @property
    def lines(self) -> List[str]:
        """The source split into lines (1-indexed access via ``lines[n-1]``)."""
        return self.source.splitlines()


@dataclass(frozen=True)
class Finding:
    """One lint finding: rule id, location, and a human-readable message."""

    rule: str
    path: str
    line: int
    message: str
    context: str = ""

    def sort_key(self) -> Tuple[str, int, str, str]:
        """Deterministic ordering: path, then line, then rule, then text."""
        return (self.path, self.line, self.rule, self.message)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form of the finding."""
        out: Dict[str, object] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }
        if self.context:
            out["context"] = self.context
        return out


#: ``# lint: spmd-ok(<rule>)`` — the one suppression syntax all passes share
_SUPPRESSION_RE = re.compile(r"#\s*lint:\s*spmd-ok\(\s*([A-Za-z0-9_*,\s-]+?)\s*\)")


class SuppressionIndex:
    """Per-file map of ``# lint: spmd-ok(<rule>)`` suppression comments.

    A finding is suppressed when the comment appears on the finding's line
    or on the line directly above it; ``spmd-ok(*)`` suppresses every rule
    on that line.  Multiple rules may be listed comma-separated.
    """

    def __init__(self) -> None:
        self._by_path: Dict[str, Dict[int, frozenset]] = {}

    def index_file(self, path: str, source: str) -> None:
        """Record the suppression comments of one source file."""
        per_line: Dict[int, frozenset] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _SUPPRESSION_RE.search(text)
            if match:
                rules = frozenset(
                    r.strip() for r in match.group(1).split(",") if r.strip()
                )
                per_line[lineno] = rules
        if per_line:
            self._by_path[path] = per_line

    def is_suppressed(self, finding: Finding) -> bool:
        """Whether a suppression comment covers this finding."""
        per_line = self._by_path.get(finding.path)
        if not per_line:
            return False
        for lineno in (finding.line, finding.line - 1):
            rules = per_line.get(lineno)
            if rules and ("*" in rules or finding.rule in rules):
                return True
        return False


@dataclass
class LintReport:
    """Aggregated result of one analyzer run (all passes, all files)."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    commgraphs: Dict[str, Dict[str, object]] = field(default_factory=dict)
    stats: Dict[str, int] = field(default_factory=dict)

    def extend(self, findings: List[Finding], suppressions: SuppressionIndex) -> None:
        """Fold a pass's findings in, routing suppressed ones aside."""
        for finding in findings:
            if suppressions.is_suppressed(finding):
                self.suppressed.append(finding)
            else:
                self.findings.append(finding)

    def finalize(self) -> "LintReport":
        """Sort everything into the canonical deterministic order."""
        self.findings.sort(key=Finding.sort_key)
        self.suppressed.sort(key=Finding.sort_key)
        return self

    @property
    def ok(self) -> bool:
        """Whether the tree is clean (no unsuppressed findings)."""
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form: findings, suppressions, stats, comm graphs."""
        return {
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "stats": dict(sorted(self.stats.items())),
            "algorithms": sorted(self.commgraphs),
        }
