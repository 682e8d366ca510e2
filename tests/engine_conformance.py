"""Cross-engine conformance harness: the executable contract of an engine.

Any backend registered via :func:`repro.mpi.engine.register_engine` must be
observationally indistinguishable from the reference thread engine: the
same rank programs must produce **bit-identical** sorted outputs, LCP
arrays, PDMS origin labels, origin wire bytes, per-PE byte and message
vectors, collective sequences and config hashes — for every algorithm and
exchange topology.
This module packages that contract as reusable pieces:

* :func:`all_engines` / :func:`engine_params` — the engine axis for pytest
  parametrization, with graceful skips where a backend cannot run (e.g. the
  platform lacks ``fork`` or POSIX shared memory);
* two test-only engines, :class:`PickleEngine` and
  :class:`PermutedBatonEngine`, on the axis but never run options: they
  are registered only inside :func:`registered` (and so inside
  :func:`set_engine`), and ``repro.mpi.engine.ENGINES`` holds the run
  options alone everywhere else;
* :func:`set_engine` — a context manager scoping ``REPRO_ENGINE`` so the
  whole call tree (``Cluster``, ``run_spmd``) runs on the chosen
  backend;
* :func:`sort_fingerprint` — one conformance cell: run a sort on a given
  engine and reduce the result to the comparable fingerprint;
* :func:`assert_engines_agree` — compare a fingerprint against the
  reference engine's, with readable per-field failures;
* :func:`failure_cause` — fail one rank on entry to a phase and return
  what the engine reports as the run's cause;
* :func:`trace_runs` — sort cells of the corpus with every rank thread
  traced: the lines it ran in chosen files, and every write to ``repro``
  module state.

``tests/test_engine_conformance.py`` drives the full matrix over the
in-tree engines; a third-party backend conforms when the same suite passes
with its name added to the axis (or by calling these helpers directly).
"""

from __future__ import annotations

import dis
import os
import pickle
import random
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import CodeType
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

import pytest

from repro.mpi.comm import Communicator
from repro.mpi.engine import ENGINES, SpmdError, ThreadEngine, _SharedState
from repro.mpi.procengine import process_engine_available
from repro.session import Cluster, spec_class

#: the paper's six algorithms; with the axes below, the conformance matrix
PAPER_ALGORITHMS = ("ms", "ms-simple", "pdms", "pdms-golomb", "hquick", "fkmerge")
TOPOLOGIES = ("direct", "hypercube", "grid")
#: the phases MS's rank program enters, in order
MS_PHASES = ("local-sort", "splitter-determination", "exchange", "merge")
#: the traced corpus (:func:`trace_runs`): the six algorithms plus ``auto``
#: over every topology at p = 3 and 4 (p = 3 runs hQuick's fold)
CORPUS_ALGORITHMS = PAPER_ALGORITHMS + ("auto",)
CORPUS_PES = (3, 4)

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
#: the packages that hold the rank programs
RANK_PROGRAM_PACKAGES = ("dist", "net")

#: the engine every other backend is compared against
REFERENCE_ENGINE = "threads"

# CI sweeps the whole matrix under several workload seeds; locally the
# default keeps every cell deterministic run to run.  The seed also draws
# the permuted-baton engine's schedules.
DEFAULT_SEED = int(os.environ.get("REPRO_CONFORMANCE_SEED", "5"))

#: fingerprint fields that must be bit-identical across engines
_IDENTICAL_FIELDS = (
    "outputs_per_pe",
    "lcps_per_pe",
    "origins_per_pe",
    "config_hash",
    "total_bytes_sent",
    "origin_bytes_sent",
    "bytes_sent_per_pe",
    "forwarded_bytes_per_pe",
    "chars_inspected_per_pe",
    "messages_per_pe",
    "collectives",
)


def _copy(obj: Any) -> Any:
    """``obj`` after a pickle round trip, as if it crossed an address space."""
    return pickle.loads(pickle.dumps(obj, protocol=5))


def _pickled_rank(fn: Callable[..., Any], comm: Communicator, *args: Any) -> Any:
    """Run ``fn`` on ``comm`` with everything that crosses ranks pickled.

    The rank's arguments and result, every point-to-point body (copied at
    the send, so neither side keeps a reference the other holds) and every
    collective contribution (pickled at the rendezvous and unpickled once
    per receiver; the rank's own slot comes back uncopied, as the processes
    engine splices it).
    """
    transmit, board_exchange = comm._transmit, comm._board_exchange

    def pickled_exchange(contribution: Any) -> List[Any]:
        board = board_exchange(pickle.dumps(contribution, protocol=5))
        return [
            contribution if r == comm.rank else pickle.loads(blob)
            for r, blob in enumerate(board)
        ]

    comm._transmit = lambda dest, body: transmit(dest, _copy(body))
    comm._board_exchange = pickled_exchange
    return _copy(fn(comm, *_copy(args)))


class PickleEngine(ThreadEngine):
    """The threads engine with every payload through ``pickle`` (test-only).

    Ranks of the processes engine share no objects: a rank that writes into
    a buffer it received, or keeps writing into one it sent, changes only
    its own copy.  Here they do the same on threads, so an aliasing bug that
    the threads engine hides (it hands the very object across) makes a cell
    differ from the threads reference.
    """

    name = "pickle"

    def run(self, fn, args_per_rank=None, common_args=(), meter=None):
        """:meth:`ThreadEngine.run` with ``fn`` wrapped by :func:`_pickled_rank`."""
        return super().run(partial(_pickled_rank, fn), args_per_rank, common_args, meter)


def _permuted_pick(state: _SharedState, rng: random.Random, rank: int) -> int:
    """The first runnable rank of a fresh random permutation of the ranks.

    With no rank runnable the threads engine's own pick decides: a withheld
    envelope's rescue, or the deadlock.
    """
    for r in rng.sample(range(state.num_pes), state.num_pes):
        wait = state.waits[r]
        if not state.finished[r] and (wait is None or state.errors or wait[0]()):
            return r
    return _SharedState._pick(state, rank)


class PermutedBatonEngine(ThreadEngine):
    """The threads engine with the baton passed in a seeded random order (test-only).

    The threads engine hands the baton on in cyclic order, so a rank program
    whose result depends on which rank ran first still gives one result run
    after run.  Processes run in whatever order the OS picks; here every
    hand-off draws a new permutation (seeded by ``DEFAULT_SEED``), so such a
    program makes a cell differ from the threads reference.
    """

    name = "permuted-baton"

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._rng = random.Random(DEFAULT_SEED)

    def _acquire_state(self, meter):
        state = super()._acquire_state(meter)
        state._pick = partial(_permuted_pick, state, self._rng)
        return state


#: engines of the conformance axis that are not run options
TEST_ENGINES: Dict[str, Callable[..., ThreadEngine]] = {
    "pickle": PickleEngine,
    "permuted-baton": PermutedBatonEngine,
}


def engine_available(name: str) -> Tuple[bool, str]:
    """Whether engine ``name`` can run on this platform: ``(ok, reason)``."""
    if name == "processes":
        return process_engine_available()
    if name in ENGINES or name in TEST_ENGINES:
        return True, ""
    return False, f"engine {name!r} is not registered"


def all_engines(test_engines: bool = True) -> List[str]:
    """Registered in-tree engine names, runnable or not (stable order).

    The test-only engines come last unless ``test_engines`` is false.
    """
    ordered = [REFERENCE_ENGINE]
    ordered += sorted(n for n in ENGINES if n != REFERENCE_ENGINE)
    if test_engines:
        ordered += [n for n in TEST_ENGINES if n not in ordered]
    return ordered


def engine_params(test_engines: bool = True) -> List[Any]:
    """The engine axis for ``@pytest.fixture(params=...)`` / parametrize.

    Engines that cannot run on this platform become skip-marked params, so
    a matrix cell reports *skipped with the platform's reason* instead of
    erroring — the graceful-degradation contract of the suite.
    """
    params: List[Any] = []
    for name in all_engines(test_engines):
        ok, reason = engine_available(name)
        if ok:
            params.append(name)
        else:
            params.append(pytest.param(name, marks=pytest.mark.skip(reason=reason)))
    return params


@contextmanager
def registered(name: str) -> Iterator[str]:
    """Register the test-only engine ``name`` for the scope (else a no-op)."""
    if name not in TEST_ENGINES or name in ENGINES:
        yield name
        return
    ENGINES[name] = TEST_ENGINES[name]
    try:
        yield name
    finally:
        del ENGINES[name]


@contextmanager
def set_engine(name: str) -> Iterator[str]:
    """Scope ``REPRO_ENGINE`` to ``name`` (restores the prior value)."""
    prior = os.environ.get("REPRO_ENGINE")
    os.environ["REPRO_ENGINE"] = name
    try:
        with registered(name):
            yield name
    finally:
        if prior is None:
            os.environ.pop("REPRO_ENGINE", None)
        else:
            os.environ["REPRO_ENGINE"] = prior


def conformance_workload(seed: int = DEFAULT_SEED):
    """The skew-heavy corpus every conformance cell sorts (adversarial mix)."""
    from repro.strings.generators import dn_instance

    corpus = dn_instance(110, 0.6, length=32, seed=seed)
    # empties and exact duplicates exercise the boundary paths
    return corpus + [b"", b"a" * 31, corpus[0], corpus[0]]


def sort_fingerprint(
    engine: str,
    algorithm: str,
    topology: str = "direct",
    num_pes: int = 4,
    seed: int = DEFAULT_SEED,
) -> Dict[str, Any]:
    """Run one conformance cell on ``engine``; returns its fingerprint.

    The fingerprint holds everything the contract pins bit-identically
    (outputs, LCPs, origins, config hash, the origin/total/per-PE wire byte
    vectors, decoded local work, per-PE message counts and the recorded
    collective sequence) plus the report's ``engine`` tag and real
    ``transported_bytes`` (informational — transport cost is the one thing
    engines legitimately differ on).
    """
    spec = spec_class(algorithm)(seed=3)
    with registered(engine), Cluster(
        num_pes=num_pes, engine=engine, exchange_topology=topology
    ) as cluster:
        result = cluster.sort(conformance_workload(seed), spec, check=True)
    report = result.report
    return {
        "outputs_per_pe": result.outputs_per_pe,
        "lcps_per_pe": result.lcps_per_pe,
        "origins_per_pe": result.origins_per_pe,
        "config_hash": spec.config_hash(),
        "total_bytes_sent": report.total_bytes_sent,
        "origin_bytes_sent": report.origin_bytes_sent,
        "bytes_sent_per_pe": list(report.bytes_sent_per_pe),
        "forwarded_bytes_per_pe": list(report.forwarded_bytes_per_pe),
        "chars_inspected_per_pe": list(report.chars_inspected_per_pe),
        "messages_per_pe": list(report.messages_per_pe),
        "collectives": [
            (ev.kind, ev.phase, ev.max_bytes_per_pe) for ev in report.collectives
        ],
        "engine_tag": report.engine,
        "transported_bytes": report.transported_bytes,
    }


def assert_engines_agree(
    candidate: Dict[str, Any], reference: Dict[str, Any], label: str = ""
) -> None:
    """Assert a candidate fingerprint matches the reference bit-for-bit."""
    for field in _IDENTICAL_FIELDS:
        assert candidate[field] == reference[field], (
            f"engine conformance violated{f' ({label})' if label else ''}: "
            f"{field} differs from the {REFERENCE_ENGINE!r} reference"
        )


class PhaseFailure(RuntimeError):
    """The exception :func:`failure_cause` raises inside one rank program."""


def failure_cause(engine: str, phase: str, rank: int = 1) -> BaseException:
    """Sort with MS on ``engine`` while ``rank`` raises entering ``phase``.

    The run must fail with :class:`SpmdError`; returns its ``__cause__``,
    which an engine must report as the rank program's own exception — not
    the "aborted" or "pipe closed" echo another rank raised in reaction.
    """
    original = Communicator.set_phase

    def set_phase(comm: Communicator, name: str) -> None:
        if comm.rank == rank and name == phase:
            raise PhaseFailure(f"rank {rank} failed entering {phase!r}")
        original(comm, name)

    # patched on the class, so forked rank processes inherit it too
    Communicator.set_phase = set_phase  # type: ignore[method-assign]
    try:
        with registered(engine), Cluster(num_pes=4, engine=engine) as cluster:
            with pytest.raises(SpmdError) as excinfo:
                cluster.sort(conformance_workload(), "ms")
    finally:
        Communicator.set_phase = original  # type: ignore[method-assign]
    return excinfo.value.__cause__


@dataclass
class CorpusTrace:
    """What the rank threads of :func:`trace_runs` did."""

    #: ``(path, line)`` of every line run in a watched file
    lines: Set[Tuple[str, int]] = field(default_factory=set)
    #: ``(path, line, next)``: in a watched file, a frame ran ``line`` and
    #: then ``next`` (``None``: it returned)
    steps: Set[Tuple[str, Optional[int], Optional[int]]] = field(default_factory=set)
    #: each ``STORE_GLOBAL``/``DELETE_GLOBAL`` run in a ``src/repro`` frame
    global_writes: List[str] = field(default_factory=list)
    #: each attribute of a ``repro`` module the runs added, removed or rebound
    module_changes: List[str] = field(default_factory=list)


_GLOBAL_WRITES = ("STORE_GLOBAL", "DELETE_GLOBAL")
_write_sites: Dict[CodeType, Dict[int, str]] = {}


def _global_write_sites(code: CodeType) -> Dict[int, str]:
    """Bytecode offset -> ``"STORE_GLOBAL name"`` of each global write in ``code``."""
    sites = _write_sites.get(code)
    if sites is None:
        sites = _write_sites[code] = {
            ins.offset: f"{ins.opname} {ins.argval}"
            for ins in dis.get_instructions(code)
            if ins.opname in _GLOBAL_WRITES
        }
    return sites


def _repro_namespaces() -> Dict[str, Dict[str, Any]]:
    """A copy of every imported ``repro`` module's ``__dict__``."""
    return {
        name: dict(vars(module))
        for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    }


def _namespace_changes(
    before: Dict[str, Dict[str, Any]], after: Dict[str, Dict[str, Any]]
) -> List[str]:
    changes = []
    for module, old in before.items():
        new = after[module]
        for name in sorted(old.keys() | new.keys()):
            if name not in new:
                changes.append(f"{module}.{name} removed")
            elif name not in old:
                changes.append(f"{module}.{name} added")
            elif new[name] is not old[name]:
                changes.append(f"{module}.{name} rebound")
    return changes


def trace_runs(
    num_pes: Iterable[int] = CORPUS_PES,
    topologies: Iterable[str] = TOPOLOGIES,
    algorithms: Iterable[str] = CORPUS_ALGORITHMS,
    watched: Iterable[str] = (),
) -> CorpusTrace:
    """Sort the corpus in every cell on the threads engine, tracing the rank threads.

    Records the lines and steps of the ``watched`` files, and every global
    write a rank thread runs in a ``src/repro`` frame (per-opcode events,
    turned on only in code that holds such a write).  A Python 3.11 trace
    function cannot see the object a ``STORE_ATTR`` writes to, so writes to
    another module's attributes are caught instead by comparing every
    ``repro`` module's ``__dict__`` before and after the runs.
    """
    trace = CorpusTrace()
    watched = set(watched)
    prefix = str(SRC) + os.sep

    def tracer_for(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        sites = _global_write_sites(frame.f_code)
        watch = path in watched
        if not (sites or watch):
            return None
        frame.f_trace_opcodes = bool(sites)
        frame.f_trace_lines = watch
        last: Optional[int] = None

        def tracer(frame, event, arg):
            nonlocal last
            if event == "opcode":
                site = sites.get(frame.f_lasti)
                if site is not None:
                    trace.global_writes.append(f"{site} at {path}:{frame.f_lineno}")
            elif event in ("line", "return"):
                line = frame.f_lineno if event == "line" else None
                trace.steps.add((path, last, line))
                if line is not None:
                    trace.lines.add((path, line))
                last = line
            return tracer

        return tracer

    corpus = conformance_workload()
    before = _repro_namespaces()
    threading.settrace(tracer_for)
    try:
        for p in num_pes:
            for topology in topologies:
                with Cluster(
                    num_pes=p, engine="threads", exchange_topology=topology
                ) as cluster:
                    for algorithm in algorithms:
                        spec = spec_class(algorithm)(seed=3)
                        cluster.sort(corpus, spec, check=True)
    finally:
        threading.settrace(None)  # type: ignore[arg-type]
    trace.module_changes = _namespace_changes(before, _repro_namespaces())
    return trace
