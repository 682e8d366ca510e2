"""Every function defined in ``src/repro`` is called by a run of the corpus.

The entry corpus below runs the public surface the way its users do: the
algorithms of ``SPECS`` over every topology on both engines, the CLI
subcommands, the figure table, the examples, the names
perfbench resolves, awkward inputs and invalid ones.  It runs once, under
``sys.setprofile`` and ``threading.setprofile``, and the profile hook
records the code object of every call.  Forked ranks of the processes
engine inherit the hook; each appends the ``src`` code objects it is the
first to see to a log file the parent reads after the run.

A function of ``src/repro`` that no entry calls fails the test, named as
``path:line qualname`` and tagged ``test-only`` when its name appears under
``tests/`` or ``benchmarks/`` (an oracle or test input that belongs in
``tests/``) and ``unreachable`` otherwise (dead code).  The only
exemptions are dunder methods and interface stubs: a docstring plus
``raise NotImplementedError``.  There is no allowlist.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import importlib.util
import io
import json
import os
import sys
import threading
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Set, Tuple
from unittest import mock

import pytest

from engine_conformance import TOPOLOGIES, conformance_workload, set_engine
from entry_points import REQUIRED
from inputs import shared_prefix
from repro.mpi.procengine import process_engine_available

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
#: where a ``test-only`` function's name may appear
TEST_TREES = (ROOT / "tests", ROOT / "benchmarks")

Key = Tuple[str, int]  # (absolute file name, first line of the code object)


# ---------------------------------------------------------------------------
# the definitions of src and their exemptions


@dataclass(frozen=True)
class Definition:
    """One ``def`` of ``src/repro``, keyed like the code object it compiles to."""

    path: Path
    #: ``co_firstlineno``: the first decorator's line, else the ``def`` line
    line: int
    qualname: str
    name: str

    @property
    def key(self) -> Key:
        return (str(self.path), self.line)

    def label(self, root: Path) -> str:
        return f"{self.path.relative_to(root).as_posix()}:{self.line} {self.qualname}"


def _is_stub(node: ast.AST) -> bool:
    """A docstring (optional) and ``raise NotImplementedError``, nothing else."""
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def _is_exempt(node: ast.AST) -> bool:
    name = node.name
    return (name.startswith("__") and name.endswith("__")) or _is_stub(node)


def definitions(root: Path = SRC) -> List[Definition]:
    """Every non-exempt function and method under ``root``."""
    found: List[Definition] = []

    def walk(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                if not _is_exempt(child):
                    line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    found.append(Definition(path, line, qualname, child.name))
                walk(child, path, f"{qualname}.<locals>.")
            else:
                walk(child, path, prefix)

    for path in sorted(root.rglob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return found


def _names_under(trees) -> Set[str]:
    """Every name, attribute and imported name used under ``trees``."""
    words: Set[str] = set()
    for tree in trees:
        for path in tree.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    words.add(node.id)
                elif isinstance(node, ast.Attribute):
                    words.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    words.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return words


def unreached(
    defs: List[Definition], reached: Set[Key], root: Path = SRC, trees=TEST_TREES
) -> List[str]:
    """``path:line qualname  test-only|unreachable`` for each uncalled def."""
    missing = [d for d in defs if d.key not in reached]
    if not missing:
        return []
    test_names = _names_under(trees)
    return [
        f"{d.label(root)}  {'test-only' if d.name in test_names else 'unreachable'}"
        for d in missing
    ]


def _declared(path: Path) -> Dict[str, str]:
    """Qualname -> ``class``, ``stub`` or ``def`` for each class and function."""
    kinds: Dict[str, str] = {}

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                kinds[f"{prefix}{child.name}"] = "class"
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                kinds[f"{prefix}{child.name}"] = "stub" if _is_stub(child) else "def"
                walk(child, f"{prefix}{child.name}.<locals>.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text()), "")
    return kinds


def promise_gaps(
    required: Dict[str, List[str]], reached: Set[Key], root: Path = SRC
) -> List[str]:
    """``module: problem`` for each ``required`` name the corpus does not hold.

    A function or method must be called.  A class with methods of its own
    must have one called (a dataclass's generated ones do not count).  A
    ``raise NotImplementedError`` stub must have its overrides listed beside
    it (``Other.method``), and each of them called.  A name the module does
    not define is a gap too.
    """
    defs = definitions(root)
    gaps: List[str] = []
    for rel, names in required.items():
        path = root.parent / rel
        if not path.is_file():
            gaps.append(f"{rel}: no such module")
            continue
        kinds = _declared(path)
        here = [d for d in defs if d.path == path]
        called = {d.qualname for d in here if d.key in reached}
        for name in names:
            kind = kinds.get(name)
            if kind is None:
                gaps.append(f"{rel}: {name} is not defined")
            elif kind == "def" and name not in called:
                gaps.append(f"{rel}: {name} never called")
            elif kind == "stub":
                method = name.rsplit(".", 1)[-1]
                overrides = [
                    n for n in names
                    if n != name and n.endswith(f".{method}") and kinds.get(n) == "def"
                ]
                if not overrides:
                    gaps.append(f"{rel}: stub {name} has no listed override")
                elif not set(overrides) <= called:
                    gaps.append(f"{rel}: stub {name} has an override never called")
            elif kind == "class":
                owned = {d.qualname for d in here if d.qualname.startswith(f"{name}.")}
                if owned and not owned & called:
                    gaps.append(f"{rel}: no method of {name} called")
    return gaps


# ---------------------------------------------------------------------------
# the recorder


class CallRecorder:
    """Records the code object of every Python call, in threads and forks.

    The hook adds each code object to ``seen``.  In a forked child (its pid
    differs from the recorder's) a code object of ``src`` that the child is
    the first to see is also appended to ``log``, one ``file<TAB>line`` per
    line, with one ``os.write`` on an ``O_APPEND`` descriptor, so the lines
    of concurrent children never interleave and a child's ``os._exit``
    loses nothing.
    """

    def __init__(self, log: Path):
        self.log = log
        self.seen: Set = set()
        self._pid = os.getpid()
        self._fd = -1
        self._prefix = str(SRC)

    def _hook(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in self.seen:
                self.seen.add(code)
                if (
                    os.getpid() != self._pid
                    and code.co_filename.startswith(self._prefix)
                ):
                    line = f"{code.co_filename}\t{code.co_firstlineno}\n"
                    os.write(self._fd, line.encode())

    @contextlib.contextmanager
    def recording(self) -> Iterator["CallRecorder"]:
        self._fd = os.open(self.log, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o600)
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        try:
            yield self
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            os.close(self._fd)

    def reached(self) -> Set[Key]:
        keys = {
            (code.co_filename, code.co_firstlineno)
            for code in self.seen
            if code.co_filename.startswith(self._prefix)
        }
        for line in self.log.read_text().splitlines():
            filename, first = line.split("\t")
            keys.add((filename, int(first)))
        return keys


# ---------------------------------------------------------------------------
# the entry corpus


def _small(seed: int = 3) -> List[bytes]:
    from repro.strings import dn_instance

    return dn_instance(60, 0.5, length=24, seed=seed) + [b"", b"", b"zz"]


ENGINES = ("threads", "processes")


def run_import(tmp: Path) -> None:
    """Every module imported afresh, so the calls made at import time count.

    Runs in a fork (see :func:`_forked`): a second copy of the package in
    this process would split every class in two.  The fresh copy also
    probes the processes engine, which the first copy did at collection.
    """
    import pkgutil

    import repro

    names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    for name in ["repro"] + names:
        importlib.import_module(name)
    importlib.import_module("repro.mpi.procengine").process_engine_available()


def run_api(tmp: Path) -> None:
    """The promised surface (``entry_points.REQUIRED``) called directly."""
    from repro import Cluster, MSSpec, SortSpec, distribute_strings, run_spmd
    from repro.config import RunConfig
    from repro.dist.api import merge_sort
    from repro.mpi.engine import ENGINES, ThreadEngine, get_engine, register_engine

    config = RunConfig.from_env({"REPRO_TRACE": "1"}).override(timeout=30.0)
    spec = SortSpec.from_dict(MSSpec(sampling="character").to_dict())
    assert spec.config_hash() == MSSpec(sampling="character").config_hash()

    @dataclass(frozen=True)
    class StampedSpec(MSSpec):
        algorithm = "ms-stamped"

        def run(self, comm, local):
            output = super().run(comm, local)
            output.extra["stamped"] = True
            return output

    register_engine("threads-again", ThreadEngine)
    try:
        assert get_engine("threads-again") is ThreadEngine
    finally:
        del ENGINES["threads-again"]
    cluster = Cluster(3, trace=config.trace)
    assert cluster.sort(_small(), StampedSpec(), check=True).extra == {"stamped": True}
    first = cluster.sort(_small(), spec, check=True)
    second = cluster.sort(_small(4), MSSpec(), check=True)
    merged = first.report.merged(second.report)
    assert merged.total_bytes_sent == (
        first.report.total_bytes_sent + second.report.total_bytes_sent
    )
    merged.metrics.series("repro_bytes_sent_total")
    blocks = distribute_strings(_small(), 2)
    run_spmd(2, lambda comm, local: merge_sort(comm, local, MSSpec()), [(b,) for b in blocks])


def run_algorithms(tmp: Path) -> None:
    """Every algorithm on every topology, threads at p in {1, 3, 4}.

    Each result is checked and read the way users read it: bytes per
    string, modelled time and the LCP arrays.  MS also sorts a block behind one shared
    prefix whose ranks each merge over 1024 strings (the merge's word
    radix).
    """
    from repro.session import SPECS, Cluster

    data = conformance_workload()
    for num_pes in (1, 3, 4):
        for topology in TOPOLOGIES:
            cluster = Cluster(num_pes, exchange_topology=topology, engine="threads")
            for name in sorted(SPECS):
                result = cluster.sort(data, name, check=True)
                result.bytes_per_string()
                result.modeled_time()
                result.lcps_per_pe
    Cluster(2, engine="threads").sort(shared_prefix(3000, seed=1), "ms", check=True)


def run_local_sorters(tmp: Path) -> None:
    """The local sort by name and in a cluster, on strings with NUL bytes
    and on a string longer than 4 KiB (blocks past the argsort's guard
    rails, which the word radix sorts)."""
    from repro import Cluster, MSSpec
    from repro.sequential import sort_strings_with_lcp

    nul = _small() + [b"a\x00b", b"\x00", b"a\x00", b"a\x00b\x00"]
    long = _small() + [b"x" * 5000, b"x" * 4999 + b"y"]
    cluster = Cluster(3)
    for data in (nul, long):
        out, _ = sort_strings_with_lcp(data)
        assert out.to_list() == sorted(data)
        cluster.sort(data, MSSpec(), check=True)


def run_processes(tmp: Path) -> None:
    """Every algorithm on the processes engine, every topology; a batch
    stream; and buckets large enough to travel through shared memory."""
    from repro.session import SPECS, Cluster
    from repro.strings import dn_instance

    data = _small()
    for topology in TOPOLOGIES:
        with Cluster(4, exchange_topology=topology, engine="processes") as cluster:
            for name in sorted(SPECS):
                cluster.sort(data, name, check=True)
    with Cluster(2, engine="processes", trace=True) as cluster:
        batches = [data[i : i + 20] for i in range(0, len(data), 20)]
        cluster.sort_batches(batches, "ms", check=True).run()
        cluster.sort(dn_instance(2000, 0.5, length=40, seed=1), "ms", check=True)


def _every_call(comm) -> int:
    """A rank program making every ``Communicator`` call (even ``size``)."""
    from repro.mpi import ReduceOp

    rank, size = comm.rank, comm.size
    peer = rank ^ 1
    with comm.phase("calls"):
        comm.record_local_work(1, 1)
        if rank % 2:
            comm.send(rank, peer, tag=2)
        else:
            assert comm.recv(peer, tag=2) == peer
        assert comm.sendrecv(rank, peer, tag=3) == peer
        assert comm.sendrecv(rank, rank, tag=4) == rank
        comm.barrier()
        assert comm.bcast(size if rank == 0 else None) == size
        assert comm.gather(rank) == (list(range(size)) if rank == 0 else None)
        assert comm.allgather(rank) == list(range(size))
        assert comm.alltoall(list(range(size))) == [rank] * size
        assert comm.allreduce(rank, op=ReduceOp.MAX) == size - 1
        return comm.allreduce(rank, op=lambda xs: min(xs))


def run_communicator(tmp: Path) -> None:
    """``run_spmd`` with every ``Communicator`` call, on both engines, traced."""
    from repro import run_spmd

    for engine in ENGINES:
        results, report = run_spmd(4, _every_call, engine=engine, trace=True)
        assert results == [0] * 4
        report.timeline.stage_seconds()


def _cli(*argv: str) -> None:
    from repro.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv


def _tiny(build: Callable) -> Callable:
    """A figure's cells at its smallest PE count, each block cut to its
    first six strings."""

    def tiny(seed):
        cells = build(seed)
        p = min(c.p for c in cells)
        return [replace(c, blocks=[b[:6] for b in c.blocks]) for c in cells if c.p == p]

    return tiny


def run_cli(tmp: Path) -> None:
    """The six subcommands, with files for every flag that reads one."""
    from repro import figures

    data, out = tmp / "in.txt", tmp / "out.txt"
    _cli("generate", "commoncrawl", "-n", "80", "-o", str(data))
    (tmp / "spec.json").write_text(json.dumps({"algorithm": "pdms-golomb"}))
    _cli("sort", "-i", str(data), "-p", "3", "--check", "-o", str(out), "--trace",
         "--spec", f"@{tmp / 'spec.json'}", "--exchange-topology", "hypercube")
    for algorithm in ("hquick", "ms"):
        _cli("sort", "-a", algorithm, "-w", "random", "-n", "60", "-p", "4",
             "--exchange-topology", "hypercube")
    _cli("algorithms")
    _cli("algorithms", "--json")
    _cli("trace", "run", "-n", "60", "-p", "3", "-o", str(tmp / "trace.json"),
         "--metrics-out", str(tmp / "metrics.json"))
    _cli("metrics", "-n", "60", "-p", "2")
    _cli("metrics", "-n", "60", "-p", "2", "--format", "json", "-o", str(tmp / "m.json"))
    with mock.patch.dict(figures.FIGURES, {"suffix": _tiny(figures.FIGURES["suffix"])}):
        _cli("experiment", "suffix", "--json", str(tmp / "rows.json"),
             "--metric", "imbalance", "--seed", "1")


def run_experiments(tmp: Path) -> None:
    """Every figure's cells, and the table of one cut to tiny blocks."""
    from repro import figures

    for name, build in figures.FIGURES.items():
        with mock.patch.dict(figures.FIGURES, {name: _tiny(build)}):
            figures.table(name, seed=1)


def _capped(generate: Callable, cap: int) -> Callable:
    def capped(num_strings, *args, **kwargs):
        return generate(min(num_strings, cap), *args, **kwargs)

    return capped


def _load(path: Path, name: str):
    """Import a script as module ``name``, registered while it is in use."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def run_examples(tmp: Path) -> None:
    """``examples/*.py`` at tiny sizes: size argument 30, at most 200 strings,
    and each figure cut to two tiny cells."""
    from repro import figures

    tiny = {name: _tiny(build) for name, build in figures.FIGURES.items()}
    for path in sorted((ROOT / "examples").glob("*.py")):
        name = f"example_{path.stem}"
        module = _load(path, name)
        if hasattr(module, "dn_instance"):
            module.dn_instance = _capped(module.dn_instance, 200)
        argv = sys.argv
        sys.argv = [str(path), "30", str(tmp / f"{path.stem}.json")]
        try:
            with contextlib.redirect_stdout(io.StringIO()), mock.patch.dict(figures.FIGURES, tiny):
                module.main()
        finally:
            sys.argv = argv
            del sys.modules[name]


def run_perfbench_names(tmp: Path) -> None:
    """The names perfbench resolves, called the way its replay calls them."""
    import repro

    replay = _load(ROOT / "perfbench" / "replay.py", "perfbench_replay")
    workloads = _load(ROOT / "perfbench" / "workloads.py", "perfbench_workloads")
    try:
        for workload in workloads.WORKLOADS.values():
            data = workload.generate(1, 0.004)
            spec = getattr(repro, workload.spec)()
            found, missing = replay.resolve(workload.spec)
            assert not missing, missing
            replay.replay(data, spec, 2, "threads", workload.topology, found)
    finally:
        del sys.modules["perfbench_replay"], sys.modules["perfbench_workloads"]


def run_invalid(tmp: Path) -> None:
    """Error paths: an unknown spec key, bad ``REPRO_*`` and flag values,
    a deadlocking ``run_spmd`` program, a receive from a peer that returned
    on the processes engine, an output the check rejects."""
    from repro import Cluster, SortSpec, run_spmd
    from repro.cli import main
    from repro.mpi.engine import SpmdError
    from repro.strings import SortCheckError, check_sort

    with pytest.raises(ValueError, match="sampling"):
        SortSpec.from_dict({"algorithm": "ms", "sampilng": "string"})
    prior = os.environ.get("REPRO_TRACE")
    os.environ["REPRO_TRACE"] = "maybe"
    try:
        with pytest.raises(ValueError, match="REPRO_TRACE"):
            Cluster(2)
    finally:
        if prior is None:
            del os.environ["REPRO_TRACE"]
        else:
            os.environ["REPRO_TRACE"] = prior
    for argv in (["sort", "-p", "0"], ["sort", "--timeout", "-5"]):
        with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
            main(argv)

    def deadlock(comm):
        if comm.rank == 0:
            comm.barrier()

    with pytest.raises(SpmdError, match="deadlock"):
        run_spmd(2, deadlock, engine="threads")

    def orphan_recv(comm):
        if comm.rank == 0:
            comm.recv(1)

    with pytest.raises(SpmdError, match="lost the connection to rank 1"):
        run_spmd(2, orphan_recv, engine="processes", timeout=30)

    result = Cluster(2).sort(_small(), "ms")
    result.rank_outputs.reverse()
    with pytest.raises(SortCheckError, match="PE 0 position 0"):
        check_sort(result.inputs_per_pe, result.rank_outputs)


#: name -> entry, each run once with a scratch directory of its own
ENTRIES: Dict[str, Callable[[Path], None]] = {
    "import": run_import,
    "api": run_api,
    "algorithms": run_algorithms,
    "local sorters": run_local_sorters,
    "processes": run_processes,
    "communicator": run_communicator,
    "cli": run_cli,
    "experiments": run_experiments,
    "examples": run_examples,
    "perfbench names": run_perfbench_names,
    "invalid inputs": run_invalid,
}
#: entries run in a fork: ``import`` must not touch this process's modules,
#: and ``examples`` (the slowest) runs alongside the rest
FORKED = ("import", "examples")


def _forked(entry: Callable[[Path], None], work: Path) -> int:
    """Start ``entry`` in a forked child; its calls arrive through the log."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports through files
        status = 1
        try:
            entry(work)
            status = 0
        except BaseException:
            (work / "error.txt").write_text(traceback.format_exc())
        finally:
            os._exit(status)
    return pid


# ---------------------------------------------------------------------------
# the tests


@pytest.fixture(scope="module")
def recorder(tmp_path_factory) -> CallRecorder:
    ok, reason = process_engine_available()
    if not ok:
        pytest.skip(f"the corpus runs the processes engine: {reason}")
    tmp = tmp_path_factory.mktemp("reach")
    rec = CallRecorder(tmp / "forked.log")
    works = {name: tmp / name.replace(" ", "-") for name in ENTRIES}
    for work in works.values():
        work.mkdir()
    # the entries name the engines they run on; the rest run on threads
    with set_engine("threads"), rec.recording():
        children = {name: _forked(ENTRIES[name], works[name]) for name in FORKED}
        try:
            for name, entry in ENTRIES.items():
                if name not in FORKED:
                    entry(works[name])
        finally:
            failed = [name for name, pid in children.items() if os.waitpid(pid, 0)[1]]
    for name in failed:
        pytest.fail(f"entry {name!r} failed:\n{(works[name] / 'error.txt').read_text()}")
    return rec


def test_every_src_function_is_reached(recorder):
    missing = unreached(definitions(), recorder.reached())
    assert not missing, (
        f"{len(missing)} src functions no entry of the corpus calls:\n  "
        + "\n  ".join(missing)
    )


def test_the_promised_api_is_called(recorder):
    """Each ``REQUIRED`` name is defined and called (see :func:`promise_gaps`)."""
    gaps = promise_gaps(REQUIRED, recorder.reached())
    assert not gaps, "\n".join(gaps)


def test_every_dunder_all_entry_resolves():
    """A deletion leaves no dangling name in any ``__all__``."""
    import pkgutil

    import repro

    modules = ["repro"] + [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
    dangling = [
        f"{name}.{entry}"
        for name in modules
        for entry in getattr(importlib.import_module(name), "__all__", ())
        if not hasattr(importlib.import_module(name), entry)
    ]
    assert not dangling, dangling


SEEDED = """\
def lcp_of_nothing(a, b):
    \"\"\"Seeded: no entry calls this.\"\"\"
    return 0


def lcp_array(strings):
    \"\"\"Seeded: a name the tests use.\"\"\"
    return []


class Seeded:
    def __repr__(self):
        return "exempt: a dunder"

    def interface(self):
        \"\"\"Exempt: a stub.\"\"\"
        raise NotImplementedError
"""


def test_a_seeded_uncalled_function_is_named(tmp_path):
    """The classifier names what nothing calls, tagged by where its name
    appears, and exempts dunders and stubs."""
    module = tmp_path / "repro" / "strings" / "lcp.py"
    module.parent.mkdir(parents=True)
    module.write_text(SEEDED)
    root = tmp_path / "repro"
    defs = definitions(root)
    assert [d.qualname for d in defs] == ["lcp_of_nothing", "lcp_array"]
    assert unreached(defs, set(), root) == [
        "strings/lcp.py:1 lcp_of_nothing  unreachable",
        "strings/lcp.py:6 lcp_array  test-only",
    ]
    called = {(str(module), 6)}
    assert unreached(defs, called, root) == ["strings/lcp.py:1 lcp_of_nothing  unreachable"]


PROMISED = """\
class Base:
    def run(self):
        \"\"\"A stub.\"\"\"
        raise NotImplementedError


class Real(Base):
    def run(self):
        \"\"\"The override.\"\"\"
        return 1


class Lone:
    def go(self):
        \"\"\"Its one method.\"\"\"
        return 2


def helper():
    \"\"\"A function.\"\"\"
    return 3
"""


def test_a_seeded_broken_promise_is_named(tmp_path):
    """An undefined ``REQUIRED`` name, an uncalled function, method or
    class, and a stub without a called override are each named."""
    module = tmp_path / "repro" / "session" / "specs.py"
    module.parent.mkdir(parents=True)
    module.write_text(PROMISED)
    root = tmp_path / "repro"
    keys = {d.qualname: d.key for d in definitions(root)}
    rel = "repro/session/specs.py"
    required = {rel: ["Base.run", "Real.run", "Lone", "helper", "merge_sort_twice"]}
    assert promise_gaps(required, {keys["helper"]}, root) == [
        f"{rel}: stub Base.run has an override never called",
        f"{rel}: Real.run never called",
        f"{rel}: no method of Lone called",
        f"{rel}: merge_sort_twice is not defined",
    ]
    reached = {keys["helper"], keys["Real.run"], keys["Lone.go"]}
    assert promise_gaps(required, reached, root) == [
        f"{rel}: merge_sort_twice is not defined"
    ]
    assert promise_gaps({rel: ["Base.run"]}, reached, root) == [
        f"{rel}: stub Base.run has no listed override"
    ]
    assert promise_gaps({"repro/gone.py": ["helper"]}, reached, root) == [
        "repro/gone.py: no such module"
    ]
