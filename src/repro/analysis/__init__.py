"""Static analysis of the repro package: SPMD, wire-format and toggle lint.

An AST-driven analyzer (python :mod:`ast` only — no third-party parser)
that checks the invariants the runtime cannot see, or surfaces only as
silent byte drift:

* :mod:`~repro.analysis.spmd` — the one SPMD bug the runtime cannot
  see: root/op literals that disagree within a phase while every rank
  makes the same calls.  Ranks in different collectives, deadlocks,
  unmatched receives and blocking self-sends are named at runtime by
  both engines (:class:`repro.mpi.engine.MeteredComm`);
* :mod:`~repro.analysis.wire` — wire-format discipline (verify-before-
  decode on sealed blocks/frames, zero-copy hot path);
* :mod:`~repro.analysis.toggles` — toggle hygiene: every ``REPRO_*``
  setting is a :class:`repro.config.RunConfig` field, read only by
  ``RunConfig.from_env``.

Entry points: :func:`~repro.analysis.runner.run_lint` (library),
``repro lint`` (CLI), ``tests/test_comm_lint.py`` (gate).  See
``docs/ANALYSIS.md`` for the pass taxonomy, the comm-graph JSON schema
and the ``# lint: spmd-ok(<rule>)`` suppression syntax.
"""

from .commgraph import (
    PackageIndex,
    build_commgraph,
    collective_sequence,
    detect_algorithms,
    parse_tree,
    transitive_closure,
)
from .model import CommEvent, Finding, FunctionSummary, LintReport, SuppressionIndex
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
    "SuppressionIndex",
    "default_source_root",
    "render_human",
    "render_json",
    "run_lint",
    "write_commgraphs",
]
