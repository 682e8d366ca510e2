"""Pass 1 — the SPMD lint rule the runtime cannot see.

``spmd-collective-mismatch``
    Rooted collectives within one function and accounting phase whose
    literal ``root`` arguments disagree (gather to 0, bcast from 1), or
    reductions whose explicit ``op`` literals disagree.  These almost
    always mean one call site was edited and its twin forgotten.  Every
    rank makes the same calls, so the rendezvous check of
    :class:`repro.mpi.engine.MeteredComm` sees agreement: only the source
    shows the slip.

The other SPMD bugs are named by the runtime on both engines, so they are
not linted: ranks in different collectives (or with different roots or
ops) fail the rendezvous signature check, a collective some rank never
joins is a deadlock, an unmatched receive is a tag mismatch or a deadlock,
and a blocking send to one's own rank raises ``SpmdError``
(docs/ANALYSIS.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .commgraph import PackageIndex
from .model import REDUCING_METHODS, ROOTED_METHODS, Finding, FunctionSummary

__all__ = ["run_spmd_pass"]


def run_spmd_pass(index: PackageIndex) -> List[Finding]:
    """Run the collective-mismatch rule over every rank program in the index."""
    findings: List[Finding] = []
    for _, summary in sorted(index.functions.items()):
        if summary.comm_param is not None:
            findings.extend(_mismatches(summary))
    return findings


def _mismatches(summary: FunctionSummary) -> List[Finding]:
    """Root and op literals that disagree within one phase of one function."""
    findings: List[Finding] = []
    roots: Dict[str, Tuple[str, int, str]] = {}
    ops: Dict[str, Tuple[str, int, str]] = {}
    for event in summary.events:
        if event.method in ROOTED_METHODS and _is_int_literal(event.root):
            seen = roots.get(event.phase)
            if seen is None:
                roots[event.phase] = (event.root, event.line, event.method)
            elif seen[0] != event.root:
                findings.append(
                    Finding(
                        rule="spmd-collective-mismatch",
                        path=summary.path,
                        line=event.line,
                        message=(
                            f"{event.method} uses root={event.root} but "
                            f"{seen[2]} at line {seen[1]} of the same phase "
                            f"({event.phase or 'unlabelled'}) uses "
                            f"root={seen[0]}; rooted collectives of one "
                            "phase must agree on the root"
                        ),
                        context=summary.key,
                    )
                )
        if event.method in REDUCING_METHODS and event.op is not None:
            seen = ops.get(event.phase)
            if seen is None:
                ops[event.phase] = (event.op, event.line, event.method)
            elif seen[0] != event.op:
                findings.append(
                    Finding(
                        rule="spmd-collective-mismatch",
                        path=summary.path,
                        line=event.line,
                        message=(
                            f"{event.method} uses op={event.op} but "
                            f"{seen[2]} at line {seen[1]} of the same phase "
                            f"({event.phase or 'unlabelled'}) uses "
                            f"op={seen[0]}; mixed reduction operators in "
                            "one phase usually mean an edited twin call"
                        ),
                        context=summary.key,
                    )
                )
    return findings


def _is_int_literal(text: Optional[str]) -> bool:
    if text is None:
        return False
    try:
        int(text)
    except ValueError:
        return False
    return True
