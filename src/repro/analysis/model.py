"""Data model of the static analyzer: events, summaries, findings.

The analyzer (see :mod:`repro.analysis.runner`) parses the ``repro``
package with Python's own :mod:`ast` — no third-party parser — and turns
every function that takes a ``comm`` parameter (the SPMD rank-program
convention established by :class:`repro.mpi.comm.Communicator`) into a
:class:`FunctionSummary`: its communication call sites
(:class:`CommEvent`), the repro-internal functions it calls, and enough
location data to report findings.  The one lint pass
(:mod:`~repro.analysis.spmd`) consumes these summaries and emits
:class:`Finding` objects; :class:`LintReport` aggregates them with
deterministic ordering so two runs over the same tree render identical
human and JSON output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "COLLECTIVE_METHODS",
    "CommEvent",
    "FunctionSummary",
    "ModuleInfo",
    "Finding",
    "LintReport",
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
    """One parsed source file: its dotted name, path and AST."""

    module: str
    path: str
    tree: object


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


@dataclass
class LintReport:
    """Aggregated result of one analyzer run (all files)."""

    findings: List[Finding] = field(default_factory=list)
    commgraphs: Dict[str, Dict[str, object]] = field(default_factory=dict)
    stats: Dict[str, int] = field(default_factory=dict)

    def finalize(self) -> "LintReport":
        """Sort the findings into the canonical deterministic order."""
        self.findings.sort(key=Finding.sort_key)
        return self

    @property
    def ok(self) -> bool:
        """Whether the tree is clean (no findings)."""
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form: findings, stats, algorithm names."""
        return {
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
            "stats": dict(sorted(self.stats.items())),
            "algorithms": sorted(self.commgraphs),
        }
