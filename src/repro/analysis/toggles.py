"""Pass 3 — toggle-hygiene lint against the one settings table.

Every execution setting the package reads from the environment is a field
of :class:`repro.config.RunConfig`, declared once with its ``REPRO_*``
variable, and :meth:`RunConfig.from_env` is the only reader.  The lint
pass enforces three invariants over the scanned tree:

``toggle-unregistered``
    A literal ``os.environ`` / ``os.getenv`` read of a ``REPRO_*`` name
    anywhere outside ``RunConfig.from_env``.  New settings must become
    ``RunConfig`` fields.

``toggle-undocumented``
    A ``RunConfig`` field whose variable is not mentioned in
    ``docs/API.md``.

``toggle-knob-missing``
    A ``RunConfig`` field that is not a ``Cluster.__init__`` parameter.
"""

from __future__ import annotations

import ast
from dataclasses import fields
from typing import Iterator, List, Optional, Tuple

from ..config import RunConfig
from .commgraph import PackageIndex
from .model import Finding

__all__ = ["run_toggle_pass", "find_env_reads"]

_TABLE = "repro.config.RunConfig"


def find_env_reads(index: PackageIndex) -> List[Tuple[str, str, int]]:
    """Literal ``REPRO_*`` environment reads outside the one reader.

    Returns ``(name, path, line)`` triples.  Recognises
    ``os.environ.get(...)``, ``os.environ[...]``, ``os.getenv(...)`` and
    the same spellings on a bare ``environ`` / ``getenv`` import; the body
    of ``RunConfig.from_env`` is skipped.  Non-literal names are invisible
    to this pass (and to every other static consumer, which is why the
    convention bans them).
    """
    reads: List[Tuple[str, str, int]] = []
    for module in sorted(index.modules):
        info = index.modules[module]
        for node in _outside_the_reader(info.tree):  # type: ignore[arg-type]
            name = _env_read_name(node)
            if name is not None and name.startswith("REPRO_"):
                reads.append((name, info.path, node.lineno))  # type: ignore[attr-defined]
    return sorted(reads, key=lambda r: (r[1], r[2], r[0]))


def _outside_the_reader(tree: ast.AST) -> Iterator[ast.AST]:
    """Every node of ``tree`` except those inside ``RunConfig.from_env``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        reader = isinstance(node, ast.ClassDef) and node.name == "RunConfig"
        for child in ast.iter_child_nodes(node):
            if not (
                reader
                and isinstance(child, ast.FunctionDef)
                and child.name == "from_env"
            ):
                stack.append(child)


def _env_read_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "get" and _is_environ(func.value):
                return _literal_str(node.args[0]) if node.args else None
            if func.attr == "getenv" and _is_os(func.value):
                return _literal_str(node.args[0]) if node.args else None
        elif isinstance(func, ast.Name) and func.id == "getenv":
            return _literal_str(node.args[0]) if node.args else None
        return None
    if isinstance(node, ast.Subscript) and _is_environ(node.value):
        return _literal_str(node.slice)
    return None


def _is_environ(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Attribute):
        return expr.attr == "environ" and _is_os(expr.value)
    return isinstance(expr, ast.Name) and expr.id == "environ"


def _is_os(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Name) and expr.id == "os"


def _literal_str(expr: ast.expr) -> Optional[str]:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    return None


def _cluster_knobs(index: PackageIndex) -> Optional[List[str]]:
    """``Cluster.__init__`` parameter names, if the class is in the tree."""
    key = None
    for candidate in index.functions:
        if candidate.endswith(":Cluster.__init__"):
            key = candidate
            break
    if key is None:
        return None
    node = index.nodes[key]
    args = getattr(node, "args", None)
    if args is None:
        return None
    names = [a.arg for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)]
    return [n for n in names if n != "self"]


def run_toggle_pass(
    index: PackageIndex, docs_text: Optional[str] = None
) -> List[Finding]:
    """Enforce the three toggle-hygiene invariants over the indexed tree.

    ``docs_text`` is the content of ``docs/API.md`` (``None`` skips the
    documentation rule, e.g. for installed trees without docs); the knob
    rule only runs when the tree contains ``Cluster``.
    """
    findings: List[Finding] = []
    for name, path, line in find_env_reads(index):
        findings.append(
            Finding(
                rule="toggle-unregistered",
                path=path,
                line=line,
                message=(
                    f"environment read of {name} outside RunConfig.from_env; "
                    f"declare the setting as a field of {_TABLE} instead"
                ),
                context=name,
            )
        )

    knobs = _cluster_knobs(index)
    for setting in fields(RunConfig):
        env = setting.metadata["env"]
        if docs_text is not None and env not in docs_text:
            findings.append(
                Finding(
                    rule="toggle-undocumented",
                    path="docs/API.md",
                    line=1,
                    message=(
                        f"setting {setting.name} ({env}) is not mentioned in "
                        "docs/API.md; every RunConfig field needs a row"
                    ),
                    context=env,
                )
            )
        if knobs is not None and setting.name not in knobs:
            findings.append(
                Finding(
                    rule="toggle-knob-missing",
                    path=_TABLE,
                    line=1,
                    message=(
                        f"RunConfig field {setting.name!r} is not a "
                        "Cluster.__init__ parameter"
                    ),
                    context=env,
                )
            )
    return findings
