"""The cross-engine conformance matrix: every backend vs the thread engine.

Drives ``tests/engine_conformance.py`` over the full contract surface —
all six algorithms x three exchange topologies — and asserts each cell's fingerprint (sorted outputs, LCP arrays, PDMS origins,
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

Reference fingerprints are computed once per (algorithm, topology) cell and cached for the whole module, so adding a backend to the axis costs
only that backend's runs.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest

from engine_conformance import (
    MS_PHASES,
    PAPER_ALGORITHMS,
    REFERENCE_ENGINE,
    TOPOLOGIES,
    PhaseFailure,
    all_engines,
    assert_engines_agree,
    engine_available,
    engine_params,
    failure_cause,
    sort_fingerprint,
)
from repro.mpi.engine import SpmdError, run_spmd

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
    """Every registered engine, including the reference (self-conformance)."""
    return request.param


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

    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
    def test_three_pe_cell_matches_reference(self, candidate_engine, algorithm):
        """A p = 3 direct cell: hQuick's fold and other non-power-of-two paths."""
        reference = _reference(algorithm, "direct", num_pes=3)
        fp = sort_fingerprint(candidate_engine, algorithm, "direct", num_pes=3)
        assert_engines_agree(
            fp, reference, label=f"{candidate_engine}/{algorithm}/direct/p=3"
        )


SPLITTERS = [("gather", "splitter-determination"), ("bcast", "splitter-determination")]
#: one doubling round: an allreduce of the strings still active, then the
#: fingerprint all-to-all and the answers back
DOUBLING_ROUND = [
    ("allreduce", "prefix-doubling"),
    ("alltoall", "prefix-doubling"),
    ("alltoall", "prefix-doubling"),
]
#: the all-to-all kind the exchange records under each topology
EXCHANGE_KIND = {
    "direct": "alltoall",
    "hypercube": "alltoall-hypercube",
    "grid": "alltoall-grid",
}


def expected_collectives(algorithm, topology):
    """The ``(kind, phase)`` sequence ``algorithm`` records at p = 4."""
    sample_sort = SPLITTERS + [(EXCHANGE_KIND[topology], "exchange")]
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
    if algorithm == "auto":
        # the D/N estimate: total strings and characters, then a sample
        estimate = [("allreduce", "dn-estimation")] * 2 + [
            ("gather", "dn-estimation"),
            ("bcast", "dn-estimation"),
        ]
        return estimate + sample_sort
    return sample_sort  # ms, ms-simple, fkmerge


class TestCommGraph:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS + ("auto",))
    def test_recorded_collective_sequence(self, algorithm, topology):
        recorded = _reference(algorithm, topology)["collectives"]
        assert [(kind, phase) for kind, phase, _ in recorded] == expected_collectives(
            algorithm, topology
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
        # rank 1 returned before the bcast only rank 0 enters
        expected = {
            "threads": "rank 0 waits for collective step 2 (bcast(root=0)); "
            "rank 1 has returned",
            "processes": "rank 0: lost rank 1 before collective step 2",
        }[candidate_engine]
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


class TestEngineAxis:
    def test_reference_engine_is_registered(self):
        assert REFERENCE_ENGINE in all_engines()

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
