"""Analyzer orchestration: parse, run the SPMD pass, render the report.

:func:`run_lint` is the single entry point behind both the ``repro lint``
CLI subcommand and the ``tests/test_comm_lint.py`` gate.  It parses the
tree once, runs the one SPMD rule a run cannot see (root/op literals that
disagree within a phase: every other SPMD bug is named at runtime by both
engines), attaches the per-algorithm comm graphs, and returns a
deterministic :class:`~repro.analysis.model.LintReport`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Sequence

from .commgraph import build_commgraph, detect_algorithms, parse_tree
from .model import LintReport
from .spmd import run_spmd_pass

__all__ = [
    "default_source_root",
    "run_lint",
    "render_human",
    "render_json",
    "write_commgraphs",
]


def default_source_root() -> Path:
    """The installed ``repro`` package directory (``src/repro`` in-tree)."""
    return Path(__file__).resolve().parent.parent


def run_lint(
    root: Optional[Path] = None,
    package: str = "repro",
    extra_paths: Sequence[Path] = (),
) -> LintReport:
    """Run the SPMD pass; return the finalized deterministic report.

    ``root=None`` scans the installed package.  ``extra_paths`` adds loose
    fixture files (indexed as ``lintfixture.*``).
    """
    if root is None and not extra_paths:
        root = default_source_root()

    index = parse_tree(root, package=package, extra_paths=extra_paths)

    report = LintReport(findings=run_spmd_pass(index))
    for name, entry in sorted(detect_algorithms(index).items()):
        report.commgraphs[name] = build_commgraph(index, name, entry)

    report.stats = {
        "modules": len(index.modules),
        "functions": len(index.functions),
        "rank_programs": sum(
            1 for s in index.functions.values() if s.comm_param is not None
        ),
        "comm_events": sum(len(s.events) for s in index.functions.values()),
        "algorithms": len(report.commgraphs),
        "findings": len(report.findings),
    }
    return report.finalize()


def render_human(report: LintReport) -> str:
    """Human-readable report (one finding per line, stats footer)."""
    lines: List[str] = []
    for finding in report.findings:
        lines.append(
            f"{finding.path}:{finding.line}: [{finding.rule}] {finding.message}"
        )
    stats = report.stats
    lines.append(
        "analyzed {modules} modules / {functions} functions "
        "({rank_programs} rank programs, {comm_events} comm events, "
        "{algorithms} algorithms)".format(**stats)
    )
    lines.append(
        "OK: no findings" if report.ok else f"FAIL: {len(report.findings)} finding(s)"
    )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Canonical JSON report (sorted keys — byte-identical across runs)."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def write_commgraphs(report: LintReport, directory: Path) -> List[Path]:
    """Write one ``commgraph-<algorithm>.json`` per algorithm; return paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for name in sorted(report.commgraphs):
        path = directory / f"commgraph-{name}.json"
        path.write_text(
            json.dumps(report.commgraphs[name], indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        written.append(path)
    return written
