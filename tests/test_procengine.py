"""Lifecycle, teardown and accounting of the multiprocessing engine.

The conformance matrix (``tests/test_engine_conformance.py``) proves the
``processes`` backend computes the same answers as the thread engine; this
module pins everything around that computation — availability probing,
engine resolution precedence, worker/segment cleanup, idempotent shutdown,
reuse after shutdown, real-transport accounting and argument validation.
The autouse ``no_engine_leaks`` fixture in ``conftest.py`` turns any leaked
child process or shared-memory segment into a test failure, so every test
here doubles as a leak check.
"""

import multiprocessing
import os
import time

import pytest

from engine_conformance import engine_available
from repro.mpi import SpmdError, get_engine, run_spmd
from repro.mpi.procengine import ProcessEngine, process_engine_available
from repro.session import Cluster

pytestmark = pytest.mark.skipif(
    not process_engine_available()[0],
    reason=process_engine_available()[1],
)


def _sum_ranks(comm):
    """A tiny SPMD program with one collective and one p2p round."""
    total = sum(comm.allgather(comm.rank))
    peer = (comm.rank + 1) % comm.size
    comm.send(comm.rank, dest=peer, tag=1)
    got = comm.recv(source=(comm.rank - 1) % comm.size, tag=1)
    return total, got


class TestLifecycle:
    def test_run_leaves_no_children_or_segments(self):
        engine = ProcessEngine(3)
        try:
            results, _ = engine.run(_sum_ranks)
        finally:
            engine.shutdown()
        assert [r[0] for r in results] == [3, 3, 3]
        assert not multiprocessing.active_children()

    def test_shutdown_is_idempotent(self):
        engine = ProcessEngine(2)
        engine.run(_sum_ranks)
        engine.shutdown()
        engine.shutdown()  # second call must be a no-op, not an error

    def test_engine_is_reusable_after_shutdown(self):
        engine = ProcessEngine(2)
        engine.run(_sum_ranks)
        engine.shutdown()
        results, _ = engine.run(_sum_ranks)
        assert [r[0] for r in results] == [1, 1]
        engine.shutdown()

    def test_consecutive_runs_share_one_engine(self):
        engine = ProcessEngine(2)
        try:
            for _ in range(3):
                results, _ = engine.run(_sum_ranks)
                assert [r[0] for r in results] == [1, 1]
            assert engine.runs_completed == 3
        finally:
            engine.shutdown()

    def test_worker_failure_is_a_typed_error_and_cleans_up(self):
        def boom(comm):
            if comm.rank == 1:
                raise RuntimeError("deliberate worker failure")
            comm.barrier()
            return comm.rank

        engine = ProcessEngine(3)
        try:
            with pytest.raises(SpmdError, match="deliberate worker failure"):
                engine.run(boom)
        finally:
            engine.shutdown()
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("pause", [0.0, 0.05])
    def test_the_first_failure_is_reported_not_the_lowest_rank(self, pause):
        """Rank 1's tag mismatch is the cause; rank 0 failing to send into
        the pipe rank 1 closed on its way out is an echo of it.  With the
        pause the echo always happens; without, it is the race tier-1 lost
        about one run in six."""

        def prog(comm):
            if comm.rank == 0:
                comm.send(b"first", dest=1, tag=1)
                time.sleep(pause)
                comm.send(b"second", dest=1, tag=2)
                return None
            return comm.recv(source=0, tag=2)  # posted out of order

        engine = ProcessEngine(2)
        try:
            for _ in range(10):
                with pytest.raises(SpmdError, match="tag mismatch"):
                    engine.run(prog)
        finally:
            engine.shutdown()

    def test_cluster_context_manager_shuts_the_engine_down(self):
        with Cluster(num_pes=2, engine="processes") as cluster:
            res = cluster.sort([b"b", b"a"], "ms")
            assert res.sorted_strings == [b"a", b"b"]
        assert not multiprocessing.active_children()

    def test_cluster_shutdown_is_explicitly_callable(self):
        cluster = Cluster(num_pes=2, engine="processes")
        cluster.sort([b"b", b"a"], "ms")
        cluster.shutdown()
        cluster.shutdown()  # idempotent through the session layer too


class TestValidation:
    def test_rejects_non_positive_pe_count(self):
        with pytest.raises(ValueError):
            ProcessEngine(0)

    def test_availability_probe_reports_a_reason(self):
        ok, reason = process_engine_available()
        assert ok is True
        assert reason == ""

    def test_engine_name_is_processes(self):
        engine = ProcessEngine(1)
        try:
            assert engine.name == "processes"
        finally:
            engine.shutdown()


class TestResolution:
    def test_explicit_name_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "threads")
        cluster = Cluster(num_pes=1, engine="processes")
        assert cluster.config.engine == cluster.engine.name == "processes"

    def test_environment_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "processes")
        assert Cluster(num_pes=1).engine.name == "processes"

    def test_default_is_threads(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert Cluster(num_pes=1).engine.name == "threads"

    def test_registry_resolves_the_class(self):
        assert get_engine("processes") is ProcessEngine

    def test_run_spmd_engine_keyword(self):
        results, report = run_spmd(2, _sum_ranks, engine="processes")
        assert [r[0] for r in results] == [1, 1]
        assert report.engine == "processes"


class TestAccounting:
    def test_transported_bytes_cover_the_simulated_volume(self):
        _, report = run_spmd(3, _sum_ranks, engine="processes")
        # every simulated wire byte had to physically cross an address
        # space, plus frame overhead; threads move nothing for the same run
        assert report.transported_bytes > 0
        _, threaded = run_spmd(3, _sum_ranks, engine="threads")
        assert threaded.transported_bytes == 0
        assert report.total_bytes_sent == threaded.total_bytes_sent

    def test_report_is_tagged_with_the_engine(self):
        _, report = run_spmd(2, _sum_ranks, engine="processes")
        assert report.engine == "processes"

    def test_large_payloads_ride_shared_memory(self):
        from repro.mpi import shm

        def prog(comm):
            blob = bytes([65 + comm.rank]) * (shm.SHM_THRESHOLD + 1024)
            peer = (comm.rank + 1) % comm.size
            comm.send(blob, dest=peer, tag=9)
            got = comm.recv(source=(comm.rank - 1) % comm.size, tag=9)
            return len(got)

        results, report = run_spmd(2, prog, engine="processes")
        assert results == [shm.SHM_THRESHOLD + 1024] * 2
        # the payload crossed via a shared-memory segment, and the segment
        # was unlinked after delivery (the leak fixture re-checks /dev/shm)
        assert report.transported_bytes > 2 * shm.SHM_THRESHOLD

    def test_no_segments_left_in_dev_shm(self):
        run_spmd(2, _sum_ranks, engine="processes")
        if os.path.isdir("/dev/shm"):
            leftovers = [
                n for n in os.listdir("/dev/shm") if n.startswith("reproshm-")
            ]
            assert leftovers == []


class TestConformanceFixtureAxis:
    def test_conformance_helpers_see_this_platform(self):
        ok, reason = engine_available("processes")
        assert ok, reason
