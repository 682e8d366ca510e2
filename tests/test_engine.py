"""Tests for the SPMD thread engine and its simulated communicator."""

import re
import sys
import time

import pytest

from repro.mpi import ReduceOp, SpmdError, run_spmd
from repro.net.metrics import TrafficMeter


class TestRunSpmd:
    def test_single_rank(self):
        results, report = run_spmd(1, lambda comm: comm.rank)
        assert results == [0]
        assert report.total_bytes_sent == 0

    def test_results_in_rank_order(self):
        results, _ = run_spmd(6, lambda comm: comm.rank * 10)
        assert results == [0, 10, 20, 30, 40, 50]

    def test_per_rank_and_common_args(self):
        def prog(comm, mine, shared):
            return (mine, shared)

        results, _ = run_spmd(
            3, prog, args_per_rank=[(i,) for i in "abc"], common_args=("x",)
        )
        assert results == [("a", "x"), ("b", "x"), ("c", "x")]

    def test_invalid_num_pes(self):
        with pytest.raises(ValueError):
            run_spmd(0, lambda comm: None)

    def test_args_per_rank_length_mismatch(self):
        with pytest.raises(ValueError):
            run_spmd(2, lambda comm, x: x, args_per_rank=[(1,)])

    def test_rank_exception_propagates(self):
        def prog(comm):
            if comm.rank == 2:
                raise RuntimeError("boom")
            comm.barrier()

        with pytest.raises(SpmdError, match="boom"):
            run_spmd(4, prog)

    def test_external_meter_is_used(self):
        meter = TrafficMeter(2)
        run_spmd(2, lambda comm: comm.send(b"x", 1 - comm.rank), meter=meter)
        assert meter.report().total_bytes_sent > 0


class TestPointToPoint:
    def test_send_recv(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send({"k": 1}, dest=1)
                return None
            return comm.recv(source=0)

        results, report = run_spmd(2, prog)
        assert results[1] == {"k": 1}
        assert report.bytes_sent_per_pe[0] > 0

    def test_ring_sendrecv(self):
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(comm.rank, right)
            return comm.recv(left)

        results, _ = run_spmd(5, prog)
        assert results == [4, 0, 1, 2, 3]

    def test_pairwise_sendrecv(self):
        def prog(comm):
            peer = comm.rank ^ 1
            return comm.sendrecv(comm.rank * 2, peer)

        results, _ = run_spmd(4, prog)
        assert results == [2, 0, 6, 4]

    def test_message_order_is_preserved(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(10):
                    comm.send(i, 1)
                return None
            return [comm.recv(0) for _ in range(10)]

        results, _ = run_spmd(2, prog)
        assert results[1] == list(range(10))

    def test_explicit_nbytes_overrides_accounting(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(b"xxxx", 1, nbytes=1000)
            else:
                comm.recv(0)

        _, report = run_spmd(2, prog)
        assert report.bytes_sent_per_pe[0] == 1000

    def test_invalid_destination(self):
        def prog(comm):
            comm.send(1, 99)

        with pytest.raises(SpmdError):
            run_spmd(2, prog)


class TestCollectives:
    def test_barrier(self):
        results, _ = run_spmd(4, lambda comm: comm.barrier() or comm.rank)
        assert results == [0, 1, 2, 3]

    def test_bcast_from_each_root(self):
        def prog(comm, root):
            value = f"payload-{comm.rank}" if comm.rank == root else None
            return comm.bcast(value, root=root)

        for root in range(3):
            results, _ = run_spmd(3, prog, common_args=(root,))
            assert results == [f"payload-{root}"] * 3

    def test_gather(self):
        def prog(comm):
            return comm.gather(comm.rank ** 2, root=1)

        results, _ = run_spmd(4, prog)
        assert results[1] == [0, 1, 4, 9]
        assert results[0] is None and results[2] is None

    def test_allgather(self):
        results, _ = run_spmd(5, lambda comm: comm.allgather(comm.rank))
        assert all(r == [0, 1, 2, 3, 4] for r in results)

    def test_alltoall_transpose(self):
        def prog(comm):
            return comm.alltoall([(comm.rank, d) for d in range(comm.size)])

        results, _ = run_spmd(4, prog)
        for r, received in enumerate(results):
            assert received == [(src, r) for src in range(4)]

    def test_alltoall_requires_one_object_per_rank(self):
        def prog(comm):
            return comm.alltoall([1, 2])

        with pytest.raises(SpmdError):
            run_spmd(3, prog)

    def test_allreduce_ops(self):
        def prog(comm):
            total = comm.allreduce(comm.rank + 1, ReduceOp.SUM)
            largest = comm.allreduce(comm.rank, ReduceOp.MAX)
            smallest = comm.allreduce(comm.rank, ReduceOp.MIN)
            return (total, largest, smallest)

        results, _ = run_spmd(4, prog)
        assert all(r == (10, 3, 0) for r in results)

    def test_reduce_with_custom_callable(self):
        def prog(comm):
            return comm.allreduce([comm.rank], op=lambda parts: sum(parts, []))

        results, _ = run_spmd(3, prog)
        assert all(r == [0, 1, 2] for r in results)

    def test_unknown_reduce_op(self):
        def prog(comm):
            return comm.allreduce(1, op="median")

        with pytest.raises(SpmdError):
            run_spmd(2, prog)


class TestAccounting:
    def test_alltoall_records_pairwise_bytes(self):
        def prog(comm):
            msgs = [b"x" * (10 * (d + 1)) for d in range(comm.size)]
            comm.alltoall(msgs)

        _, report = run_spmd(3, prog)
        # each rank sends 10+20+30 bytes of payload to others minus its own slot
        for rank in range(3):
            own = 10 * (rank + 1)
            assert report.bytes_sent_per_pe[rank] >= 60 - own

    def test_collective_events_are_recorded(self):
        def prog(comm):
            comm.bcast(b"z" * 100 if comm.rank == 0 else None, root=0)
            comm.alltoall([b"" for _ in range(comm.size)])

        _, report = run_spmd(4, prog)
        kinds = [c.kind for c in report.collectives]
        assert "bcast" in kinds and "alltoall" in kinds

    def test_phase_labels_flow_into_report(self):
        def prog(comm):
            with comm.phase("stage-a"):
                comm.send(b"abc", (comm.rank + 1) % comm.size)
                comm.recv((comm.rank - 1) % comm.size)

        _, report = run_spmd(2, prog)
        assert "stage-a" in report.phase_bytes

    def test_record_local_work(self):
        def prog(comm):
            comm.record_local_work(1000, 10)

        _, report = run_spmd(2, prog)
        assert report.chars_inspected_per_pe == [1000, 1000]
        assert report.items_processed_per_pe == [10, 10]

    def test_bcast_total_volume_is_p_minus_one_copies(self):
        def prog(comm):
            comm.bcast(b"y" * 50 if comm.rank == 1 else None, root=1)

        _, report = run_spmd(5, prog)
        assert report.total_bytes_sent == 4 * (50 + 1)


class TestRecvDeadlockClock:
    """Deadlock detection: exact on threads, recv-call clocked on processes.

    The cooperative threads engine knows when no rank can run, so it raises
    a deadlock at once, whatever the timeout.  The processes engine waits
    for the timeout, and its clock counts from the ``recv`` call: what a
    rank computed before it receives is not waiting.
    """

    WORK = 0.3  # seconds the blocked rank computes before it waits

    def _deadlock(self, prog, monkeypatch):
        """Run ``prog`` on threads under the default timeout; its error and time."""
        monkeypatch.delenv("REPRO_SPMD_TIMEOUT", raising=False)
        start = time.monotonic()
        with pytest.raises(SpmdError) as excinfo:
            run_spmd(2, prog, engine="threads")
        return excinfo.value, time.monotonic() - start

    def test_threads_detect_a_starved_receive_exactly(self, monkeypatch):
        def prog(comm):
            if comm.rank == 0:
                time.sleep(self.WORK)
                comm.recv(1, tag=3)  # rank 1 has returned without sending

        error, elapsed = self._deadlock(prog, monkeypatch)
        # the default timeout is 600 s: only exact detection is this fast
        assert elapsed < self.WORK + 1.0, f"deadlock detection took {elapsed:.2f}s"
        assert isinstance(error.__cause__, SpmdError)
        message = str(error.__cause__)
        assert "rank 0 waits for a message from rank 1 (tag 3)" in message
        assert "rank 1 has returned" in message

    def test_threads_detect_a_collective_deadlock_exactly(self, monkeypatch):
        def prog(comm):
            if comm.rank == 0:
                time.sleep(self.WORK)
                comm.barrier()  # rank 1 has returned without joining

        error, elapsed = self._deadlock(prog, monkeypatch)
        assert elapsed < self.WORK + 1.0, f"deadlock detection took {elapsed:.2f}s"
        message = str(error.__cause__)
        assert "rank 0 waits for collective step 0" in message
        assert "rank 1 has returned" in message

    @staticmethod
    def _require_processes():
        from repro.mpi.procengine import process_engine_available

        ok, reason = process_engine_available()
        if not ok:
            pytest.skip(reason)

    def test_processes_timeout_counts_from_the_recv_call(self):
        self._require_processes()

        def prog(comm):
            if comm.rank == 0:
                # compute past the whole timeout, then wait well within it:
                # a clock started before the recv call would fire at once
                time.sleep(1.2)
                return comm.recv(1)
            time.sleep(1.5)
            comm.send(b"late", 0)
            return None

        results, _ = run_spmd(2, prog, timeout=1.0, engine="processes")
        assert results[0] == b"late"

    def test_processes_recv_times_out_counted_from_the_call(self):
        self._require_processes()
        timeout = 0.5

        def prog(comm):
            if comm.rank == 1:
                time.sleep(2.0)  # alive but never sends
                return
            # compute past the whole timeout: a clock started before the
            # recv call would fire at once
            time.sleep(0.7)
            called = time.monotonic()
            try:
                comm.recv(1)
            except SpmdError as exc:
                waited = time.monotonic() - called
                raise SpmdError(f"{exc}; waited {waited:.3f}s") from exc

        with pytest.raises(SpmdError) as excinfo:
            run_spmd(2, prog, timeout=timeout, engine="processes")
        message = str(excinfo.value.__cause__)
        assert re.search(r"recv timeout|timed out", message), message
        waited = float(re.search(r"waited ([\d.]+)s", message).group(1))
        # rank 1 exits 1.3 s into the recv: only the timeout ends it sooner
        assert timeout <= waited < timeout + 0.5, message

    def test_processes_recv_sees_a_peer_that_returned(self):
        self._require_processes()

        def prog(comm):
            if comm.rank == 0:
                comm.recv(1)  # rank 1 returns without sending

        start = time.monotonic()
        with pytest.raises(SpmdError, match="lost the connection to rank 1"):
            run_spmd(2, prog, timeout=30.0, engine="processes")
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"a dead peer took {elapsed:.2f}s to notice"

    def test_a_late_send_within_timeout_still_completes(self, engine):
        def prog(comm):
            if comm.rank == 0:
                return comm.recv(1)
            time.sleep(0.1)
            comm.send(b"payload", 0)
            return None

        results, _ = run_spmd(2, prog, timeout=5.0)
        assert results[0] == b"payload"


class TestCooperativeSchedule:
    def test_interleaving_replays_under_a_short_switch_interval(self):
        """More ranks than cores and a 1 µs switch interval: one schedule."""

        def prog(comm, log):
            right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
            total = 0
            for step in range(5):
                comm.send(comm.rank * step, right, tag=step)
                log.append((comm.rank, "sent", step))
                total += comm.recv(left, tag=step)
                log.append((comm.rank, "received", step))
                total = comm.allreduce(total)
            return total

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = []
            for _ in range(2):
                # only the baton holder runs, so the shared log records the
                # schedule itself
                log = []
                results, report = run_spmd(16, prog, common_args=(log,), engine="threads")
                runs.append((results, log, report.bytes_sent_per_pe))
        finally:
            sys.setswitchinterval(interval)
        assert runs[0] == runs[1]
        assert len(runs[0][1]) == 16 * 5 * 2


class TestBlockingRecv:
    def test_recv_recovers_a_dropped_final_message(self, engine):
        """No successor reveals the gap: the threads scheduler or the
        processes backoff timer pulls the withheld envelope."""
        from repro.faults import FaultPlan, FaultRule

        def prog(comm):
            if comm.rank == 0:
                return comm.recv(1)
            comm.send(b"dropped once", 0)
            return None

        plan = FaultPlan(seed=1, rules=(FaultRule(kind="drop", src=1, dst=0),))
        results, report = run_spmd(2, prog, fault_plan=plan)
        assert results[0] == b"dropped once"
        assert report.faults_detected_per_pe[0] == 1
        assert report.retries_per_pe[0] == 1

    def test_a_retransmit_is_stamped_after_the_send_it_repeats(self, engine):
        """The receiver's clock catches up to a withheld envelope's send
        before it waits, so the pull it makes later is stamped after it."""
        from repro.faults import FaultPlan, FaultRule

        def prog(comm):
            if comm.rank == 0:
                return comm.recv(1)
            time.sleep(0.1)  # rank 0 has been waiting since its recv call
            comm.send(b"dropped once", 0)
            return None

        plan = FaultPlan(seed=1, rules=(FaultRule(kind="drop", src=1, dst=0),))
        _, report = run_spmd(2, prog, fault_plan=plan, trace=True)
        instants = report.timeline.instants
        (sent,) = [i.ts for i in instants if i.rank == 1 and i.name == "send"]
        (pulled,) = [i.ts for i in instants if i.rank == 0 and i.name == "retransmit"]
        assert pulled >= sent

    def test_recv_waits_until_the_peer_sends(self, engine):
        def prog(comm):
            if comm.rank == 0:
                return comm.recv(1, tag=5)
            time.sleep(0.05)  # rank 0 reaches its recv first on either engine
            comm.send(b"late", 0, tag=5)
            return None

        results, _ = run_spmd(2, prog)
        assert results[0] == b"late"

    def test_recv_takes_a_message_whose_sender_has_returned(self, engine):
        def prog(comm):
            if comm.rank == 1:
                comm.send(b"parting", 0)
                return None
            time.sleep(0.05)  # rank 1 has returned before this recv
            return comm.recv(1)

        results, _ = run_spmd(2, prog)
        assert results[0] == b"parting"

    def test_recv_discards_a_duplicated_final_message(self, engine):
        from repro.faults import FaultPlan, FaultRule

        def prog(comm):
            if comm.rank == 0:
                return comm.recv(1)
            comm.send(b"twice", 0)
            return None

        plan = FaultPlan(seed=1, rules=(FaultRule(kind="duplicate", src=1, dst=0),))
        results, report = run_spmd(2, prog, fault_plan=plan)
        assert results[0] == b"twice"
        assert report.faults_injected_per_pe[1] == 1
        assert report.faults_detected_per_pe[0] == 1
        assert report.retries_per_pe[0] == 0

    def test_recv_releases_a_delayed_final_message(self, engine):
        """Nothing ever overtakes the held message, so the idle receiver's
        recovery pull releases it."""
        from repro.faults import FaultPlan, FaultRule

        def prog(comm):
            if comm.rank == 0:
                return comm.recv(1)
            comm.send(b"held", 0)
            return None

        plan = FaultPlan(
            seed=1,
            rules=(FaultRule(kind="delay", src=1, dst=0, delay_messages=5),),
            retry_delay=0.01,
        )
        results, report = run_spmd(2, prog, fault_plan=plan)
        assert results[0] == b"held"
        assert report.faults_injected_per_pe[1] == 1
        assert report.retries_per_pe[0] >= 1

    def test_recv_sees_an_aborted_run(self, engine):
        def prog(comm):
            if comm.rank == 0:
                comm.recv(1)
            else:
                raise RuntimeError("rank 1 failed")

        with pytest.raises(SpmdError) as excinfo:
            run_spmd(2, prog)
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert "rank 1 failed" in str(excinfo.value.__cause__)


class TestEngineStateReuse:
    """Machine reuse vs. transparent rebuild of poisoned shared state.

    A :class:`ThreadEngine` keeps its message channels across clean runs
    (``state_reuses`` counts those), but a failed run, or one that leaves a
    message stranded in a channel, poisons them — the next run must rebuild
    the state transparently, and the rebuild must NOT count as a reuse.
    """

    @staticmethod
    def _engine(num_pes=2, timeout=5.0):
        from repro.config import RunConfig
        from repro.mpi.engine import ThreadEngine

        return ThreadEngine(num_pes, config=RunConfig(timeout=timeout))

    def test_clean_runs_reuse_state(self):
        eng = self._engine()
        for _ in range(3):
            eng.run(lambda comm: comm.sendrecv(comm.rank, 1 - comm.rank))
        assert eng.runs_completed == 3
        assert eng.state_reuses == 2  # first run builds, the next two reuse

    def test_rank_exception_poisons_state(self):
        eng = self._engine()

        def boom(comm):
            if comm.rank == 0:
                raise RuntimeError("boom")
            comm.barrier()

        with pytest.raises(SpmdError, match="boom"):
            eng.run(boom)
        # the next run rebuilds (failed run), succeeds, and the rebuild
        # is not counted as a reuse
        results, _ = eng.run(lambda comm: comm.rank)
        assert results == [0, 1]
        assert eng.state_reuses == 0
        # ... and the rebuilt state is reusable again afterwards
        eng.run(lambda comm: comm.rank)
        assert eng.state_reuses == 1

    def test_stray_queued_message_prevents_reuse(self):
        eng = self._engine()

        def leaky(comm):
            # rank 0 sends a message nobody ever receives
            if comm.rank == 0:
                comm.send(b"stray", 1)
            comm.barrier()

        eng.run(leaky)
        # queue (0, 1) still holds the stray message: state is not clean
        results, _ = eng.run(lambda comm: comm.rank)
        assert results == [0, 1]
        assert eng.state_reuses == 0

    def test_failed_then_clean_runs_keep_results_correct(self):
        eng = self._engine()

        def flaky(comm, fail):
            if fail and comm.rank == 1:
                raise ValueError("injected")
            return comm.sendrecv(comm.rank * 10, 1 - comm.rank)

        with pytest.raises(SpmdError):
            eng.run(flaky, common_args=(True,))
        results, report = eng.run(flaky, common_args=(False,))
        assert results == [10, 0]
        # per-run meters: the failed attempt's bytes must not leak in
        _, clean_report = self._engine().run(flaky, common_args=(False,))
        assert report.total_bytes_sent == clean_report.total_bytes_sent
