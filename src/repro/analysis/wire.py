"""Pass 2 — wire-format usage lint.

Pins two disciplines established by earlier PRs:

``wire-unverified-decode``
    PR 7 sealed the wire formats: :class:`~repro.dist.exchange.StringBlock`
    and :class:`~repro.dist.exchange.LcpCompressedBlock` carry a content
    CRC and must re-verify it before decoding, because fault rules may
    corrupt frames in flight.  Any class that defines a seal-verify method
    (``_verify_seal`` / ``verify``) *and* a decode entry point (``decode``
    / ``decode_run``) is held to that contract: the decode method must
    reach the verify method through ``self``-calls.

``wire-unverified-frame``
    :class:`~repro.net.router.RouteFrame` receivers must call
    ``frame.verify()`` before consuming ``frame.payload``.  Flagged when a
    function loads both ``X.payload`` and ``X.origin``/``X.dest`` off the
    same name (the frame-consumption signature) without an ``X.verify()``
    call.  ``self`` is exempt — a frame's own methods are the seal.

``wire-hot-materialize``
    PR 6's zero-copy discipline: the packed hot path must not fall back to
    ``to_list()`` (a full python-object materialization of the packed
    arena).  Flagged inside the known hot functions; boundary and
    diagnostic code (``__repr__``, cold fallbacks) is free to materialize.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from .commgraph import PackageIndex
from .model import Finding

__all__ = ["run_wire_pass"]

#: decode entry points held to the verify-before-decode contract
_DECODE_METHODS = frozenset({"decode", "decode_run"})

#: seal-verify method names (any one satisfies the contract)
_VERIFY_METHODS = frozenset({"_verify_seal", "verify"})

#: functions on the packed hot path where ``to_list()`` is a perf bug —
#: decode/merge/exchange inner loops pinned by PR 6's zero-copy discipline
_HOT_FUNCTIONS = frozenset(
    {
        "decode_run",
        "lcp_multiway_merge_packed",
        "exchange_buckets",
        "routed_exchange",
        "front_code",
        "front_decode",
    }
)


def run_wire_pass(index: PackageIndex) -> List[Finding]:
    """Run all three wire-format rules over the indexed tree."""
    findings: List[Finding] = []
    for module in sorted(index.modules):
        info = index.modules[module]
        for node in ast.walk(info.tree):  # type: ignore[arg-type]
            if isinstance(node, ast.ClassDef):
                findings.extend(_check_sealed_class(info.path, node))
    findings.extend(_frame_consumption_pass(index))
    findings.extend(_hot_materialize_pass(index))
    return findings


# ---------------------------------------------------------------------------
# sealed-class decode discipline
# ---------------------------------------------------------------------------

def _check_sealed_class(path: str, cls: ast.ClassDef) -> List[Finding]:
    """Every decode entry point of a sealed class must reach its verifier."""
    methods: Dict[str, ast.AST] = {
        item.name: item
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    verifiers = _VERIFY_METHODS & set(methods)
    decoders = _DECODE_METHODS & set(methods)
    if not verifiers or not decoders:
        return []

    findings: List[Finding] = []
    for name in sorted(decoders):
        reached = _self_call_closure(methods, name)
        if not (reached & verifiers):
            node = methods[name]
            findings.append(
                Finding(
                    rule="wire-unverified-decode",
                    path=path,
                    line=getattr(node, "lineno", cls.lineno),
                    message=(
                        f"{cls.name}.{name} decodes sealed wire data without "
                        f"reaching {'/'.join(sorted(verifiers))}; fault rules "
                        "may corrupt frames in flight, so every decode path "
                        "must re-verify the content seal first"
                    ),
                    context=f"{cls.name}.{name}",
                )
            )
    return findings


def _self_call_closure(methods: Dict[str, ast.AST], start: str) -> Set[str]:
    """Method names reachable from ``start`` through ``self.m()`` calls."""
    seen: Set[str] = set()
    frontier = [start]
    while frontier:
        name = frontier.pop()
        if name in seen or name not in methods:
            continue
        seen.add(name)
        for node in ast.walk(methods[name]):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            ):
                frontier.append(node.func.attr)
    return seen


# ---------------------------------------------------------------------------
# frame consumption without verify
# ---------------------------------------------------------------------------

def _frame_consumption_pass(index: PackageIndex) -> List[Finding]:
    findings: List[Finding] = []
    for key in sorted(index.functions):
        summary = index.functions[key]
        node = index.nodes[key]
        findings.extend(_check_frame_consumption(summary.path, key, node))
    return findings


def _check_frame_consumption(path: str, key: str, node: ast.AST) -> List[Finding]:
    """Names whose ``.payload`` and ``.origin``/``.dest`` are both read must
    also have ``.verify()`` called on them in the same function."""
    loads: Dict[str, Dict[str, int]] = {}
    verified: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
            base = child.value.id
            if base == "self":
                continue
            if child.attr in ("payload", "origin", "dest"):
                loads.setdefault(base, {}).setdefault(child.attr, child.lineno)
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr in ("verify", "_verify_seal")
            and isinstance(child.func.value, ast.Name)
        ):
            verified.add(child.func.value.id)

    findings: List[Finding] = []
    for base in sorted(loads):
        attrs = loads[base]
        if "payload" in attrs and ("origin" in attrs or "dest" in attrs):
            if base not in verified:
                findings.append(
                    Finding(
                        rule="wire-unverified-frame",
                        path=path,
                        line=attrs["payload"],
                        message=(
                            f"route frame {base!r} has its payload consumed "
                            f"without a {base}.verify() call in this function; "
                            "routed frames must be checksum-verified before "
                            "their payload is trusted"
                        ),
                        context=key,
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# hot-path materialization
# ---------------------------------------------------------------------------

def _hot_materialize_pass(index: PackageIndex) -> List[Finding]:
    findings: List[Finding] = []
    for key in sorted(index.functions):
        summary = index.functions[key]
        short = summary.qualname.rsplit(".", 1)[-1]
        if short not in _HOT_FUNCTIONS:
            continue
        node = index.nodes[key]
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "to_list"
            ):
                findings.append(
                    Finding(
                        rule="wire-hot-materialize",
                        path=summary.path,
                        line=child.lineno,
                        message=(
                            f"to_list() inside hot function {short!r} "
                            "materializes the packed arena into python "
                            "objects; the packed hot path must stay "
                            "zero-copy (use packed slicing/segment APIs)"
                        ),
                        context=key,
                    )
                )
    return findings
