"""Comm-graph extraction: parse the package, summarise every rank program.

This module is the analyzer's front end.  It parses a source tree with
:mod:`ast`, indexes every function (including methods and nested
functions, with proper ``__qualname__``-style names), resolves
repro-internal calls through each module's imports, and extracts a
:class:`~repro.analysis.model.CommEvent` for every call on a function's
``comm`` parameter.  On top of the per-function summaries it provides

* :func:`transitive_closure` — the set of functions reachable from an
  entry point through resolved repro-internal calls (cycle safe);
* :func:`collective_sequence` — the spliced, call-site-ordered sequence
  of collective methods an entry point issues;
* :func:`detect_algorithms` — the statically visible
  ``AlgorithmRegistry`` entries (``AlgorithmEntry(...)`` constructions and
  ``register_algorithm(...)`` calls), mapping algorithm names to their
  rank-runner functions;
* :func:`build_commgraph` — the per-algorithm comm-graph JSON artifact
  (deterministic ordering, pinned by the test gate).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .model import (
    COLLECTIVE_METHODS,
    CommEvent,
    FunctionSummary,
    ModuleInfo,
    SuppressionIndex,
)

__all__ = [
    "PackageIndex",
    "parse_tree",
    "transitive_closure",
    "collective_sequence",
    "detect_algorithms",
    "build_commgraph",
]

#: methods of the ``Communicator`` protocol that the extractor records
_COMM_METHODS = frozenset(
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
        "send",
        "recv",
        "sendrecv",
        "isend",
        "irecv",
    }
)

#: positional argument layouts of the recorded methods (name -> parameter
#: names in positional order, ``None`` marking the payload slots the
#: extractor does not capture)
_SIGNATURES: Dict[str, Tuple[Optional[str], ...]] = {
    "send": (None, "peer", "tag"),
    "recv": ("peer", "tag"),
    "sendrecv": (None, "peer", "tag"),
    "isend": (None, "peer", "tag"),
    "irecv": ("peer", "tag"),
    "bcast": (None, "root"),
    "gather": (None, "root"),
    "scatter": (None, "root"),
    "reduce": (None, "op", "root"),
    "allreduce": (None, "op"),
    "allgather": (None,),
    "alltoall": (None,),
    "barrier": (),
    "record_exchange_collective": (None,),
}


def _unparse(node: Optional[ast.AST]) -> Optional[str]:
    """Source text of an expression node (``None`` passes through)."""
    if node is None:
        return None
    return ast.unparse(node)


class PackageIndex:
    """Everything the passes need about one parsed source tree."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionSummary] = {}
        #: ``module:qualname`` -> the function's AST node (for re-walks)
        self.nodes: Dict[str, ast.AST] = {}
        #: per-module name -> ``module:qualname`` resolution table
        self._resolvers: Dict[str, Dict[str, str]] = {}
        self.suppressions = SuppressionIndex()

    # ------------------------------------------------------------------ parsing
    def add_package(self, root: Path, package: str) -> None:
        """Parse every ``*.py`` under ``root`` as modules of ``package``."""
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root)
            parts = list(rel.with_suffix("").parts)
            if parts[-1] == "__init__":
                parts = parts[:-1]
            module = ".".join([package] + parts) if parts else package
            self.add_file(path, module)

    def add_file(self, path: Path, module: str) -> None:
        """Parse one source file under the given dotted module name."""
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        info = ModuleInfo(module=module, path=str(path), tree=tree, source=source)
        self.modules[module] = info
        self.suppressions.index_file(str(path), source)

    # ------------------------------------------------------------------ indexing
    def build(self) -> None:
        """Index functions, imports and comm events of all parsed modules."""
        # first pass: register every function key and each module's name
        # resolution table, so the summarisation pass can resolve calls into
        # modules that come later in parse order (and through re-exports)
        for info in self.modules.values():
            imports = _module_imports(info)
            resolver: Dict[str, str] = {}
            for qualname, node in _collect_functions(info):
                # a bare name refers to the module-level def; nested/method
                # names are only reachable through the qualname itself
                key = f"{info.module}:{qualname}"
                self.nodes[key] = node
                if "." not in qualname:
                    resolver[qualname] = key
            resolver.update(imports)
            self._resolvers[info.module] = resolver

        for info in self.modules.values():
            for qualname, node in _collect_functions(info):
                summary = _summarise_function(info, qualname, node, self)
                self.functions[summary.key] = summary

    def resolve_call(self, module: str, func: ast.expr) -> Optional[str]:
        """Resolve a call's target to a ``module:qualname`` key, if internal.

        Handles bare names (local defs and ``from X import name``) and
        one-level attribute calls on imported modules (``mod.func(...)``).
        Unresolvable targets — dynamic dispatch, stdlib, methods — return
        ``None`` and contribute nothing to the closure.
        """
        if isinstance(func, ast.Name):
            return self.resolve_name(module, func.id)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base = self._resolvers.get(module, {}).get(func.value.id)
            if base is not None and base.endswith(":<module>"):
                target = f"{base[: -len(':<module>')]}:{func.attr}"
                return self._chase(target)
        return None

    def resolve_name(self, module: str, name: str) -> Optional[str]:
        """Resolve a bare name in ``module`` to a function key, if internal."""
        return self._chase(self._resolvers.get(module, {}).get(name))

    def _chase(self, target: Optional[str], _hops: int = 0) -> Optional[str]:
        """Follow package re-exports (``from .sub import f`` in __init__).

        An import bound to ``repro.dist:hquick_sort`` where ``repro.dist``
        is a package resolves through that package's own import table to
        the defining module, ``repro.dist.hquick:hquick_sort``.
        """
        if target is None or _hops > 8:
            return None
        if target in self.nodes:
            return target
        module, _, name = target.partition(":")
        reexport = self._resolvers.get(module, {}).get(name)
        if reexport is not None and reexport != target:
            return self._chase(reexport, _hops + 1)
        return None


def _module_imports(info: ModuleInfo) -> Dict[str, str]:
    """Name -> ``module:qualname`` (or ``module:<module>``) import table."""
    table: Dict[str, str] = {}
    package_parts = info.module.split(".")
    for node in ast.walk(info.tree):  # type: ignore[arg-type]
        if isinstance(node, ast.ImportFrom):
            if node.level:
                # relative import: strip one part for the module itself plus
                # (level - 1) further packages
                base = package_parts[: len(package_parts) - node.level]
            else:
                base = []
            if node.module:
                base = base + node.module.split(".")
            target_module = ".".join(base)
            for alias in node.names:
                bound = alias.asname or alias.name
                table[bound] = f"{target_module}:{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                table[bound] = f"{alias.name}:<module>"
    return table


def _collect_functions(info: ModuleInfo) -> List[Tuple[str, ast.AST]]:
    """All function defs of a module with ``__qualname__``-style names."""
    found: List[Tuple[str, ast.AST]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                found.append((qualname, child))
                visit(child, f"{qualname}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.If, ast.Try, ast.With)):
                visit(child, prefix)

    visit(info.tree, "")  # type: ignore[arg-type]
    return found


def _comm_param(node: ast.AST) -> Optional[str]:
    """The function's communicator parameter name, if it has one.

    By package convention (see :mod:`repro.mpi.comm`) rank programs and
    their helpers receive the communicator as a parameter named ``comm`` or
    one annotated ``Communicator``.
    """
    args = getattr(node, "args", None)
    if args is None:
        return None
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        if arg.arg == "comm":
            return "comm"
        annotation = _unparse(arg.annotation)
        if annotation and "Communicator" in annotation:
            return arg.arg
    return None


class _EventExtractor(ast.NodeVisitor):
    """Walk one function body collecting comm events and internal calls."""

    def __init__(
        self,
        info: ModuleInfo,
        qualname: str,
        comm_param: Optional[str],
        index: PackageIndex,
    ) -> None:
        self.info = info
        self.qualname = qualname
        self.comm_param = comm_param
        self.index = index
        self.events: List[CommEvent] = []
        self.calls: List[str] = []
        self.effects: List[Tuple[str, str]] = []
        self.phase_stack: List[str] = []

    # nested defs get their own summaries; do not descend into them
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:  # noqa: D102
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:  # noqa: D102
        pass

    def visit_With(self, node: ast.With) -> None:
        """Track static ``with comm.phase("...")`` labels."""
        labels: List[str] = []
        for item in node.items:
            label = self._phase_label(item.context_expr)
            if label is not None:
                labels.append(label)
        self.phase_stack.extend(labels)
        for item in node.items:
            self.visit(item.context_expr)
        for stmt in node.body:
            self.visit(stmt)
        for _ in labels:
            self.phase_stack.pop()

    def _phase_label(self, expr: ast.expr) -> Optional[str]:
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "phase"
            and self._is_comm(expr.func.value)
            and expr.args
        ):
            arg = expr.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                return arg.value
            return _unparse(arg) or ""
        return None

    def _is_comm(self, expr: ast.expr) -> bool:
        return (
            self.comm_param is not None
            and isinstance(expr, ast.Name)
            and expr.id == self.comm_param
        )

    def visit_Call(self, node: ast.Call) -> None:
        """Record a comm event or an internal call edge, then recurse."""
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and self._is_comm(func.value)
            and func.attr in _COMM_METHODS
        ):
            self.events.append(self._event(func.attr, node))
            self.effects.append(("event", func.attr))
        else:
            target = self.index.resolve_call(self.info.module, func)
            if target is not None:
                self.calls.append(target)
                self.effects.append(("call", target))
        self.generic_visit(node)

    def _event(self, method: str, node: ast.Call) -> CommEvent:
        layout = _SIGNATURES.get(method, ())
        values: Dict[str, Optional[str]] = {"root": None, "op": None, "tag": None, "peer": None}
        for position, arg in enumerate(node.args):
            if position < len(layout) and layout[position] is not None:
                values[layout[position]] = _unparse(arg)  # type: ignore[index]
        for keyword in node.keywords:
            if keyword.arg in values:
                values[keyword.arg] = _unparse(keyword.value)
        if method in _SIGNATURES and "tag" in _SIGNATURES[method]:
            # MPI default: tag 0 matches tag 0
            values["tag"] = values["tag"] or "0"
        return CommEvent(
            method=method,
            module=self.info.module,
            qualname=self.qualname,
            line=node.lineno,
            phase=self.phase_stack[-1] if self.phase_stack else "",
            root=values["root"],
            op=values["op"],
            tag=values["tag"],
            peer=values["peer"],
        )


def _summarise_function(
    info: ModuleInfo, qualname: str, node: ast.AST, index: PackageIndex
) -> FunctionSummary:
    """Build the :class:`FunctionSummary` of one function definition."""
    comm_param = _comm_param(node)
    extractor = _EventExtractor(info, qualname, comm_param, index)
    for stmt in getattr(node, "body", []):
        extractor.visit(stmt)
    return FunctionSummary(
        module=info.module,
        qualname=qualname,
        line=getattr(node, "lineno", 0),
        path=info.path,
        comm_param=comm_param,
        events=extractor.events,
        calls=extractor.calls,
        effects=extractor.effects,
    )


# ---------------------------------------------------------------------------
# closures and sequences
# ---------------------------------------------------------------------------

def transitive_closure(index: PackageIndex, entry: str) -> List[str]:
    """Function keys reachable from ``entry`` (entry first, then BFS order)."""
    seen: Set[str] = set()
    order: List[str] = []
    frontier = [entry]
    while frontier:
        key = frontier.pop(0)
        if key in seen or key not in index.functions:
            continue
        seen.add(key)
        order.append(key)
        frontier.extend(index.functions[key].calls)
    return order


def collective_sequence(
    index: PackageIndex, entry: str, _stack: Optional[Set[str]] = None
) -> List[str]:
    """Spliced collective-method sequence issued from ``entry``.

    Point-to-point posts are omitted (they match pairwise across ranks
    rather than by global order); calls to resolved repro functions splice
    the callee's sequence at the call site; recursion is cut at the cycle.
    """
    stack = _stack if _stack is not None else set()
    if entry in stack or entry not in index.functions:
        return []
    stack = stack | {entry}
    summary = index.functions[entry]
    out: List[str] = []
    for kind, value in summary.effects:
        if kind == "event":
            if value in COLLECTIVE_METHODS:
                out.append(value)
        else:
            out.extend(collective_sequence(index, value, stack))
    return out


# ---------------------------------------------------------------------------
# algorithm registry detection
# ---------------------------------------------------------------------------

def detect_algorithms(index: PackageIndex) -> Dict[str, str]:
    """Statically visible registry entries: algorithm name -> function key.

    Finds ``AlgorithmEntry("name", runner, ...)`` constructions and
    ``register_algorithm("name", runner, ...)`` calls anywhere in the tree
    and resolves ``runner`` through the defining module's import table, so
    both the built-in table and third-party registrations that live inside
    the scanned tree are analyzed.
    """
    algorithms: Dict[str, str] = {}
    for info in index.modules.values():
        for node in ast.walk(info.tree):  # type: ignore[arg-type]
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node.func)
            if name not in ("AlgorithmEntry", "register_algorithm"):
                continue
            if len(node.args) < 2:
                continue
            label, runner = node.args[0], node.args[1]
            if not (isinstance(label, ast.Constant) and isinstance(label.value, str)):
                continue
            if not isinstance(runner, ast.Name):
                continue
            target = index.resolve_name(info.module, runner.id)
            if target is not None:
                algorithms[label.value] = target
    return algorithms


def _call_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


# ---------------------------------------------------------------------------
# the comm-graph artifact
# ---------------------------------------------------------------------------

def build_commgraph(index: PackageIndex, name: str, entry: str) -> Dict[str, object]:
    """The per-algorithm comm-graph JSON (schema in docs/ANALYSIS.md).

    Deterministic by construction: functions are keyed and sorted by
    ``module:qualname``, events stay in source order, and the spliced
    collective sequence is a flat list of method names.
    """
    closure = transitive_closure(index, entry)
    functions: Dict[str, object] = {}
    for key in sorted(closure):
        summary = index.functions[key]
        if not summary.events and not summary.calls:
            continue
        functions[key] = {
            "path": summary.path,
            "line": summary.line,
            "events": [event.to_dict() for event in summary.events],
            "calls": sorted(set(summary.calls)),
        }
    return {
        "algorithm": name,
        "entry": entry,
        "collective_sequence": collective_sequence(index, entry),
        "functions": functions,
        "schema": "repro.analysis/commgraph/v1",
    }


def parse_tree(
    root: Path,
    package: str = "repro",
    extra_paths: Sequence[Path] = (),
) -> PackageIndex:
    """Parse ``root`` as ``package`` plus loose extra files; build the index.

    ``extra_paths`` entries may be files or directories; they are indexed
    under synthetic ``lintfixture.<stem>`` module names so fixtures never
    shadow real package modules.
    """
    index = PackageIndex()
    if root is not None:
        index.add_package(root, package)
    for extra in extra_paths:
        extra = Path(extra)
        files: Iterable[Path]
        if extra.is_dir():
            files = sorted(extra.rglob("*.py"))
        else:
            files = [extra]
        for path in files:
            index.add_file(path, f"lintfixture.{path.stem}")
    index.build()
    return index
