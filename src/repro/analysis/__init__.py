"""Static analysis of the repro package: the comm graphs and one SPMD rule.

An AST-driven analyzer (python :mod:`ast` only — no third-party parser)
that extracts every rank program's communication and checks the one SPMD
invariant no run can see: root/op literals that disagree within a phase
while every rank makes the same calls (:mod:`~repro.analysis.spmd`).
Ranks in different collectives, deadlocks, unmatched receives and
blocking self-sends are named at runtime by both engines
(:class:`repro.mpi.engine.MeteredComm`); wire seals, the zero-copy hot
path and the ``REPRO_*`` settings table are pinned by tests.

Entry points: :func:`~repro.analysis.runner.run_lint` (library),
``repro lint`` (CLI), ``tests/test_comm_lint.py`` (gate).  See
``docs/ANALYSIS.md`` for the remaining rule, the former rules and the
tests that now catch them, and the comm-graph JSON schema.
"""

from .commgraph import (
    PackageIndex,
    build_commgraph,
    collective_sequence,
    detect_algorithms,
    parse_tree,
    transitive_closure,
)
from .model import CommEvent, Finding, FunctionSummary, LintReport
from .runner import (
    default_source_root,
    render_human,
    render_json,
    run_lint,
    write_commgraphs,
)

__all__ = [
    "PackageIndex",
    "build_commgraph",
    "collective_sequence",
    "detect_algorithms",
    "parse_tree",
    "transitive_closure",
    "CommEvent",
    "Finding",
    "FunctionSummary",
    "LintReport",
    "default_source_root",
    "render_human",
    "render_json",
    "run_lint",
    "write_commgraphs",
]
