"""The cross-engine conformance matrix: every backend vs the thread engine.

Drives ``tests/engine_conformance.py`` over the full contract surface —
all six algorithms x both exchange topologies, at p = 4 and p = 3 — and
asserts each cell's fingerprint (sorted outputs, LCP arrays, PDMS origins,
config hash, origin/total/per-PE wire bytes, decoded local work, per-PE
message counts, the recorded collective sequence) is
bit-identical between the candidate engine and the ``threads`` reference.
Cells for engines the platform cannot run are skipped with the platform's
reason, never errored.  ``TestSpmdAtRuntime`` requires every engine to
name the SPMD bugs a run can see: ranks in different
collectives, an invalid root, a blocking self-send, and the three seeded
fixtures under ``tests/fixtures/lint/``.

``TestCommGraph`` pins each algorithm's communication structure as the
meter records it: the ``(kind, phase)`` sequence of ``report.collectives``.

``TestRootCause`` fails one rank entering each phase and requires every
engine to report that rank's own exception as the cause;
``TestHeldBackRank`` holds one rank back there instead and requires every
engine to finish the sort with the reference fingerprint, not to take the
wait for a deadlock.  Both run MS over direct delivery;
``TestPhasesOfEveryAlgorithm`` holds every phase of every algorithm to the
same two contracts over each delivery route on the threads and the
processes engine (``TestPhaseTable`` pins the phases it strikes), and
``TestRunAfterAFailedRun`` sorts again on the cluster a failed run left
behind.

``TestSeededMutations`` holds the two test-only engines to what they are
for: each catches a seeded bug that the threads engine runs the same way
every time and so cannot see (an aliased buffer, an order-dependent
result).  It also shows that the root-cause check fails on an engine that
swallows a rank's exception.  ``TestEngineAxis`` checks that neither
test-only engine is a run option.

Reference fingerprints are computed once per (algorithm, topology) cell and cached for the whole module, so adding a backend to the axis costs
only that backend's runs.
"""

from __future__ import annotations

import importlib.util
import os
import re
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from engine_conformance import (
    ALGORITHM_PHASES,
    MS_PHASES,
    PAPER_ALGORITHMS,
    REFERENCE_ENGINE,
    ROUTES,
    TOPOLOGIES,
    PhaseFailure,
    TEST_ENGINES,
    all_engines,
    assert_engines_agree,
    at_phase,
    engine_available,
    engine_params,
    conformance_workload,
    failure_cause,
    registered,
    result_fingerprint,
    sort_fingerprint,
)
from repro.config import RunConfig
from repro.mpi.comm import Communicator
from repro.mpi.engine import ENGINES, SpmdError, ThreadEngine, run_spmd
from repro.session import Cluster, spec_class

LINT_FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"

_reference_cache = {}


def _reference(algorithm, topology, num_pes=4):
    key = (algorithm, topology, num_pes)
    if key not in _reference_cache:
        _reference_cache[key] = sort_fingerprint(
            REFERENCE_ENGINE, algorithm, topology, num_pes=num_pes
        )
    return _reference_cache[key]


@pytest.fixture(params=engine_params())
def candidate_engine(request):
    """Every engine of the axis, including the reference (self-conformance)."""
    with registered(request.param):
        yield request.param


class TestConformanceMatrix:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
    def test_cell_matches_reference(self, candidate_engine, algorithm, topology):
        """One matrix cell: candidate fingerprint == reference fingerprint."""
        reference = _reference(algorithm, topology)
        # on the reference engine this is self-conformance: a second run
        # must reproduce the first
        fp = sort_fingerprint(candidate_engine, algorithm, topology)
        assert_engines_agree(
            fp, reference, label=f"{candidate_engine}/{algorithm}/{topology}"
        )
        assert fp["engine_tag"] == candidate_engine

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
    def test_three_pe_cell_matches_reference(self, candidate_engine, algorithm, topology):
        """A p = 3 cell: hQuick's fold, the hypercube's direct-round fallback
        and the other non-power-of-two paths."""
        reference = _reference(algorithm, topology, num_pes=3)
        fp = sort_fingerprint(candidate_engine, algorithm, topology, num_pes=3)
        assert_engines_agree(
            fp, reference, label=f"{candidate_engine}/{algorithm}/{topology}/p=3"
        )


SPLITTERS = [("gather", "splitter-determination"), ("bcast", "splitter-determination")]
#: one doubling round: an allreduce of the strings still active, then the
#: fingerprint all-to-all and the answers back
DOUBLING_ROUND = [
    ("allreduce", "prefix-doubling"),
    ("alltoall", "prefix-doubling"),
    ("alltoall", "prefix-doubling"),
]
#: the all-to-all kind the exchange records under each topology at p = 4;
#: off a power of two the hypercube falls back to a plain ``alltoall``
EXCHANGE_KIND = {
    "direct": "alltoall",
    "hypercube": "alltoall-hypercube",
}


def expected_collectives(algorithm, topology, num_pes=4):
    """The ``(kind, phase)`` sequence ``algorithm`` records at p = 3 or 4."""
    kind = EXCHANGE_KIND[topology] if num_pes == 4 else "alltoall"
    sample_sort = SPLITTERS + [(kind, "exchange")]
    if algorithm == "hquick":
        return []  # pure point-to-point: fold, gossip and exchange rounds
    if algorithm in ("pdms", "pdms-golomb"):
        # two doubling rounds resolve the corpus; the third allreduce finds
        # nothing active.  The two trailing statistics allreduces run
        # outside any phase.
        return (
            DOUBLING_ROUND * 2
            + [("allreduce", "prefix-doubling")]
            + sample_sort
            + [("allreduce", "unlabelled")] * 2
        )
    return sample_sort  # ms, ms-simple, fkmerge


class TestCommGraph:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
    def test_recorded_collective_sequence(self, algorithm, topology):
        recorded = _reference(algorithm, topology)["collectives"]
        assert [(kind, phase) for kind, phase, _ in recorded] == expected_collectives(
            algorithm, topology
        )

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
    def test_three_pe_collective_sequence(self, algorithm, topology):
        """Off a power of two both deliveries record the same plain alltoall."""
        recorded = _reference(algorithm, topology, num_pes=3)["collectives"]
        assert [(kind, phase) for kind, phase, _ in recorded] == expected_collectives(
            algorithm, topology, num_pes=3
        )


def _spmd_failure(engine, program, args_per_rank=None):
    """Run ``program`` at p = 2 on ``engine``; the message it fails with."""
    with pytest.raises(SpmdError) as excinfo:
        run_spmd(2, program, args_per_rank=args_per_rank, engine=engine)
    return str(excinfo.value.__cause__ or excinfo.value)


def _max(values):
    return max(values)


#: one program per kind of collective mismatch, and the message naming it
MISMATCHES = {
    "call": (
        lambda comm: comm.bcast("x", root=0) if comm.rank == 0 else comm.allgather(1),
        "collective step 0: rank 0 in bcast(root=0), rank 1 in allgather",
    ),
    "root": (
        lambda comm: comm.bcast(comm.rank, root=comm.rank),
        "collective step 0: rank 0 in bcast(root=0), rank 1 in bcast(root=1)",
    ),
    "op": (
        lambda comm: comm.allreduce(1, op="sum" if comm.rank == 0 else "max"),
        "collective step 0: rank 0 in allreduce(op=sum), rank 1 in allreduce(op=max)",
    ),
    "callable-op": (
        lambda comm: comm.allreduce(1, op=_max if comm.rank == 0 else "max"),
        "collective step 0: rank 0 in allreduce(op=_max), rank 1 in allreduce(op=max)",
    ),
    "barrier": (
        lambda comm: comm.allreduce(1) if comm.rank == 0 else comm.barrier(),
        "collective step 0: rank 0 in allreduce(op=sum), rank 1 in barrier",
    ),
    "later-step": (
        lambda comm: (comm.barrier(), comm.alltoall([0, 0]), comm.gather(1, root=0))
        if comm.rank == 0
        else (comm.barrier(), comm.alltoall([0, 0]), comm.bcast(1, root=0)),
        "collective step 3: rank 0 in gather(root=0), rank 1 in bcast(root=0)",
    ),
}


def _fixture(name, function):
    """The rank program ``function`` of the seeded fixture ``name``."""
    spec = importlib.util.spec_from_file_location(name, LINT_FIXTURES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, function)


class TestSpmdAtRuntime:
    """Both engines name the SPMD bugs a run can see."""

    @pytest.mark.parametrize("kind", sorted(MISMATCHES))
    def test_a_collective_mismatch_names_each_rank(self, candidate_engine, kind):
        program, expected = MISMATCHES[kind]
        assert expected in _spmd_failure(candidate_engine, program)

    @pytest.mark.parametrize("root", [5, -1, 2])
    @pytest.mark.parametrize(
        "call",
        [
            lambda comm, root: comm.bcast(1, root=root),
            lambda comm, root: comm.gather(1, root=root),
        ],
        ids=["bcast", "gather"],
    )
    def test_an_invalid_root_is_rejected(self, candidate_engine, call, root):
        with pytest.raises(SpmdError) as excinfo:
            run_spmd(2, call, common_args=(root,), engine=candidate_engine)
        cause = excinfo.value.__cause__
        assert isinstance(cause, ValueError)
        assert str(cause) == f"invalid root rank {root}"

    def test_a_blocking_send_to_oneself_is_refused(self, candidate_engine):
        message = _spmd_failure(candidate_engine, lambda comm: comm.send(1, comm.rank))
        assert re.search(r"rank [01]: blocking send to its own rank", message)
        assert "use sendrecv" in message

    def test_sendrecv_with_oneself_stays_legal(self, candidate_engine):
        def program(comm):
            return comm.sendrecv(comm.rank, comm.rank)

        results, report = run_spmd(2, program, engine=candidate_engine)
        assert results == [0, 1]
        assert report.total_bytes_sent == 0  # self-messages cost nothing

    def test_divergent_collective_fixture(self, candidate_engine):
        program = _fixture("divergent_collective", "divergent_reduce")
        message = _spmd_failure(
            candidate_engine, program, args_per_rank=[([b"a"],), ([b"b"],)]
        )
        # rank 1 returned before the bcast only rank 0 enters; the test-only
        # engines schedule on threads and report what the threads engine does
        expected = (
            "rank 0: lost rank 1 before collective step 2"
            if candidate_engine == "processes"
            else "rank 0 waits for collective step 2 (bcast(root=0)); "
            "rank 1 has returned"
        )
        assert expected in message

    def test_orphan_recv_fixture(self, candidate_engine):
        program = _fixture("orphan_recv", "mismatched_tags")
        message = _spmd_failure(
            candidate_engine, program, args_per_rank=[([b"a"],), ([b"b"],)]
        )
        assert (
            "rank 1: tag mismatch receiving from 0: expected 12, got 11" in message
        )

    def test_self_send_fixture(self, candidate_engine):
        program = _fixture("self_send", "fold_to_self")
        message = _spmd_failure(candidate_engine, program, args_per_rank=[(b"a",), (b"b",)])
        assert re.search(r"rank [01]: blocking send to its own rank \(tag 31\)", message)


class TestRootCause:
    @pytest.mark.parametrize("phase", MS_PHASES)
    def test_failing_rank_is_the_reported_cause(self, candidate_engine, phase):
        """The SpmdError chains the failing rank's own exception."""
        cause = failure_cause(candidate_engine, phase)
        assert isinstance(cause, PhaseFailure), repr(cause)
        assert f"entering {phase!r}" in str(cause)


class TestHeldBackRank:
    #: seconds rank 1 sleeps entering its phase, and the processes engine's
    #: per-operation timeout the wait must stay within
    HOLD = 0.2
    TIMEOUT = "5"

    @pytest.mark.parametrize("phase", MS_PHASES)
    def test_a_held_back_rank_is_no_deadlock(self, candidate_engine, phase, monkeypatch):
        """The other ranks wait for the held rank and the sort completes
        with the reference fingerprint on every engine."""
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", self.TIMEOUT)
        start = time.monotonic()
        with at_phase(phase, seconds=self.HOLD):
            held = sort_fingerprint(candidate_engine, "ms")
        assert time.monotonic() - start >= self.HOLD
        assert_engines_agree(held, _reference("ms", "direct"), f"rank 1 held in {phase}")


def _phase_cells():
    """``(engine, route, algorithm, phase)`` for every phase of every
    algorithm over each route on the reference and the processes engine.
    MS over direct delivery is left to :class:`TestRootCause` and
    :class:`TestHeldBackRank`, which run it on every engine."""
    cells = []
    for engine in (REFERENCE_ENGINE, "processes"):
        ok, reason = engine_available(engine)
        marks = () if ok else (pytest.mark.skip(reason=reason),)
        for route in ROUTES:
            for algorithm in PAPER_ALGORITHMS:
                if algorithm == "ms" and route == "direct":
                    continue
                for phase in ALGORITHM_PHASES[algorithm]:
                    cells.append(
                        pytest.param(
                            engine, route, algorithm, phase, marks=marks,
                            id=f"{engine}-{route}-{algorithm}-{phase}",
                        )
                    )
    return cells


class TestPhaseTable:
    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
    @pytest.mark.parametrize("route", ROUTES)
    def test_the_table_lists_every_phase_a_rank_enters(self, monkeypatch, algorithm, route):
        """``ALGORITHM_PHASES`` is what rank 1 enters, in order, so the
        phase matrices below strike every phase and none that never runs."""
        entered = []
        original = Communicator.set_phase

        def recording(comm, name):
            if comm.rank == 1 and name != "unlabelled" and name not in entered:
                entered.append(name)
            original(comm, name)

        monkeypatch.setattr(Communicator, "set_phase", recording)
        topology, num_pes = ROUTES[route]
        Cluster(num_pes=num_pes, exchange_topology=topology).sort(
            conformance_workload(), algorithm
        )
        assert tuple(entered) == ALGORITHM_PHASES[algorithm]


class TestPhasesOfEveryAlgorithm:
    """The root-cause and held-back contracts on every phase of every
    algorithm: each phase leaves the other ranks waiting in a different
    collective or point-to-point pattern, and over the hypercube routes a
    failed or held rank is also a relay the others' messages pass through."""

    HOLD = 0.05
    TIMEOUT = "5"

    @pytest.mark.parametrize("engine,route,algorithm,phase", _phase_cells())
    def test_failing_rank_is_the_reported_cause(self, engine, route, algorithm, phase):
        topology, num_pes = ROUTES[route]
        cause = failure_cause(
            engine, phase, algorithm=algorithm, topology=topology, num_pes=num_pes
        )
        assert isinstance(cause, PhaseFailure), repr(cause)
        assert f"entering {phase!r}" in str(cause)

    @pytest.mark.parametrize("engine,route,algorithm,phase", _phase_cells())
    def test_a_held_back_rank_is_no_deadlock(
        self, engine, route, algorithm, phase, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", self.TIMEOUT)
        topology, num_pes = ROUTES[route]
        with at_phase(phase, seconds=self.HOLD) as struck:
            held = sort_fingerprint(engine, algorithm, topology, num_pes=num_pes)
        if engine == REFERENCE_ENGINE:
            # rank threads strike this process's hook; rank processes their own
            assert struck, f"rank 1 never entered {phase!r}"
        assert_engines_agree(
            held,
            _reference(algorithm, topology, num_pes),
            f"{engine}/{route}/{algorithm}: rank 1 held in {phase}",
        )


class TestRunAfterAFailedRun:
    @pytest.mark.parametrize("engine", engine_params(test_engines=False))
    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
    def test_the_cluster_sorts_again_after_a_failed_run(self, engine, algorithm):
        """A rank fails in the last phase, once the run has built the most
        state; the same cluster's next sort matches the reference."""
        spec = spec_class(algorithm)(seed=3)
        with Cluster(num_pes=4, engine=engine) as cluster:
            with at_phase(ALGORITHM_PHASES[algorithm][-1]), pytest.raises(SpmdError):
                cluster.sort(conformance_workload(), spec)
            result = cluster.sort(conformance_workload(), spec, check=True)
        assert_engines_agree(
            result_fingerprint(result, spec),
            _reference(algorithm, "direct"),
            f"{engine}/{algorithm}: the run after a failed one",
        )


def _aliasing_program(transport):
    """A seeded aliasing bug: rank 1 writes into the buffer it received
    from rank 0, and rank 0 reads its own buffer afterwards."""

    def program(comm):
        buffer = bytearray(b"clean")
        if transport == "bcast":
            received = comm.bcast(buffer, root=0)
        elif comm.rank == 0:
            comm.send(buffer, 1)
        else:
            received = comm.recv(0)
        if comm.rank == 1:
            received[:] = b"dirty"
        comm.barrier()
        return bytes(buffer)

    return program


def _order_dependent_program():
    """A seeded order dependence: every rank returns the order in which
    the ranks ran after each of eight barriers."""
    turns = []

    def program(comm):
        for _ in range(8):
            comm.barrier()
            turns.append(comm.rank)
        comm.barrier()
        return list(turns)

    return program


def _results(engine, program, num_pes):
    with registered(engine):
        return run_spmd(num_pes, program, engine=engine)[0]


def _swallowing_rank(fn, comm, *args):
    """Run ``fn``; a rank that raises returns ``None`` instead."""
    try:
        return fn(comm, *args)
    except Exception:
        return None


class SwallowingEngine(ThreadEngine):
    """A seeded engine bug: a rank's exception is dropped, the rank returns."""

    name = "swallowing"

    def run(self, fn, args_per_rank=None, common_args=(), meter=None):
        """:meth:`ThreadEngine.run` with ``fn`` wrapped by :func:`_swallowing_rank`."""
        return super().run(
            partial(_swallowing_rank, fn), args_per_rank, common_args, meter
        )


class TestSeededMutations:
    @pytest.mark.parametrize("transport", ["send", "bcast"])
    def test_pickle_engine_catches_a_write_into_a_received_buffer(self, transport):
        runs = [
            _results(engine, _aliasing_program(transport), 2)
            for engine in (REFERENCE_ENGINE, REFERENCE_ENGINE, "pickle")
        ]
        # threads hands rank 1 rank 0's very buffer, the same way every run
        assert runs[0] == runs[1] == [b"dirty", b"clean"]
        assert runs[2] == [b"clean", b"clean"]

    def test_permuted_baton_engine_catches_an_order_dependent_result(self):
        runs = [
            _results(engine, _order_dependent_program(), 4)
            for engine in (REFERENCE_ENGINE, REFERENCE_ENGINE, "permuted-baton")
        ]
        assert runs[0] == runs[1]
        assert runs[2] != runs[0]
        # every rank still ran once between each pair of barriers
        assert sorted(runs[2][0]) == sorted(runs[0][0])

    def test_root_cause_check_catches_a_swallowed_exception(self, monkeypatch):
        """Rank 1's failure vanishes, so the others wait for it at the
        splitter collective and the engine can only report that deadlock."""
        monkeypatch.setitem(ENGINES, SwallowingEngine.name, SwallowingEngine)
        cause = failure_cause(SwallowingEngine.name, "local-sort")
        assert not isinstance(cause, PhaseFailure)
        assert "deadlock" in str(cause) and "rank 1 has returned" in str(cause)


class TestEngineAxis:
    def test_reference_engine_is_registered(self):
        assert REFERENCE_ENGINE in all_engines()

    def test_test_engines_join_the_axis_only(self):
        assert set(TEST_ENGINES) <= set(all_engines())
        assert set(TEST_ENGINES).isdisjoint(all_engines(test_engines=False))
        assert set(ENGINES) == {"threads", "processes"}
        for name in TEST_ENGINES:
            with pytest.raises(ValueError, match="must be a registered engine"):
                RunConfig(engine=name)
            with registered(name):
                assert RunConfig(engine=name).engine == name
            assert name not in ENGINES

    def test_test_engines_are_not_run_options(self):
        """A fresh interpreter: ``import repro`` registers the run options
        only, and neither ``RunConfig`` nor the CLI takes a test engine."""
        code = (
            "import repro\n"
            "from repro.config import RunConfig\n"
            "from repro.mpi.engine import ENGINES\n"
            "assert set(ENGINES) == {'threads', 'processes'}, sorted(ENGINES)\n"
            "for name in ('pickle', 'permuted-baton'):\n"
            "    try:\n"
            "        RunConfig(engine=name)\n"
            "    except ValueError:\n"
            "        continue\n"
            "    raise AssertionError(name)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("REPRO_ENGINE", None)
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        for name in TEST_ENGINES:
            cli = subprocess.run(
                [sys.executable, "-m", "repro", "sort", "-n", "8", "--engine", name],
                env=env,
                capture_output=True,
                text=True,
            )
            assert cli.returncode == 2
            assert f"one of ['processes', 'threads'], got {name!r}" in cli.stderr

    def test_processes_engine_is_registered(self):
        assert "processes" in all_engines()

    def test_engine_availability_reports_reasons(self):
        for name in all_engines():
            ok, reason = engine_available(name)
            assert ok or reason

    def test_unregistered_engine_is_unavailable(self):
        ok, reason = engine_available("definitely-not-an-engine")
        assert not ok and "not registered" in reason


class TestRealTransport:
    def test_processes_engine_reports_transported_bytes(self):
        ok, reason = engine_available("processes")
        if not ok:
            pytest.skip(reason)
        fp = sort_fingerprint("processes", "ms")
        # real pipe frames + shm payloads: at least the simulated volume
        # actually had to move between address spaces
        assert fp["transported_bytes"] > 0

    def test_thread_engine_moves_no_real_bytes(self):
        fp = sort_fingerprint(REFERENCE_ENGINE, "ms")
        assert fp["transported_bytes"] == 0
