"""Fault injection through the engine/exchange/session stack.

Controlled single-fault scenarios where the exact counter values are
deterministic: one rule, one channel, known message counts.  The broader
"any plan, any algorithm" sweeps live in ``tests/test_faults_chaos.py``.
"""

import pickle

import numpy as np
import pytest

from repro.config import RunConfig
from repro.dist.exchange import LcpCompressedBlock, StringBlock
from repro.faults import (
    CHECKSUM_WIRE_BYTES,
    CorruptFrameError,
    FaultPlan,
    FaultRule,
    LostMessageError,
    RankCrashError,
)
from repro.mpi.engine import SpmdError, ThreadEngine, run_spmd
from repro.net import router
from repro.net.router import RouteFrame, frame_wire_bytes
from repro.session import Cluster, MSSimpleSpec, MSSpec, PDMSSpec
from repro.strings.generators import random_strings
from repro.strings.lcp import lcp_array
from repro.strings.packed import PackedStringArray


def ring_prog(comm, chunk):
    """Send the local chunk one hop clockwise; receive from anticlockwise."""
    comm.set_phase("exchange")
    comm.send(chunk, (comm.rank + 1) % comm.size, tag=7)
    return comm.recv((comm.rank - 1) % comm.size, tag=7)


ARGS = [(f"payload-{r}",) for r in range(4)]


def run_ring(plan=None, timeout=10.0):
    return run_spmd(4, ring_prog, args_per_rank=ARGS, timeout=timeout,
                    fault_plan=plan)


class TestEnvelopeBaseline:
    def test_empty_plan_output_identical_to_no_plan(self):
        base, _ = run_ring()
        sealed, _ = run_ring(FaultPlan())
        assert sealed == base

    def test_empty_plan_charges_envelope_overhead(self):
        _, base = run_ring()
        _, sealed = run_ring(FaultPlan())
        # 4 messages, each + varint(seq)=1 byte + 4 CRC bytes
        assert sealed.total_bytes_sent == base.total_bytes_sent + 4 * 5
        assert sealed.faults_injected == 0
        assert sealed.faults_detected == 0
        assert sealed.retries == 0
        assert sealed.retransmitted_bytes == 0

    def test_chaos_origin_bytes_match_empty_plan(self):
        _, sealed = run_ring(FaultPlan())
        plan = FaultPlan(seed=1, rules=(FaultRule(kind="drop", src=0),))
        _, faulty = run_ring(plan)
        assert faulty.origin_bytes_sent == sealed.origin_bytes_sent


class TestDropRecovery:
    def test_drop_detected_and_retransmitted(self):
        plan = FaultPlan(seed=1, rules=(FaultRule(kind="drop", src=0, dst=1),))
        results, report = run_ring(plan)
        assert results == [x[0] for x in ARGS][-1:] + [x[0] for x in ARGS][:-1]
        assert report.faults_injected == 1
        assert report.faults_detected == 1
        assert report.retries == 1
        assert report.retransmitted_bytes > 0

    def test_drop_budget_exhaustion_raises_lost_message(self):
        # max_retransmits=0: recovery is not allowed to pull at all
        plan = FaultPlan(
            seed=1,
            rules=(FaultRule(kind="drop", src=0, dst=1),),
            max_retransmits=0,
            retry_delay=0.01,
        )
        with pytest.raises(SpmdError) as excinfo:
            run_ring(plan, timeout=3.0)
        assert isinstance(excinfo.value.__cause__, LostMessageError)


class TestCorruptRecovery:
    def test_corrupt_detected_and_repaired(self):
        plan = FaultPlan(seed=2, rules=(FaultRule(kind="corrupt", src=2, dst=3),))
        results, report = run_ring(plan)
        assert results[3] == "payload-2"
        assert report.faults_injected == 1
        assert report.faults_detected == 1
        assert report.retries == 1

    def test_persistent_corruption_raises_corrupt_frame(self):
        # the rule re-strikes every retransmit: the budget must run out
        plan = FaultPlan(
            seed=2,
            rules=(FaultRule(kind="corrupt", src=2, dst=3, max_hits=None),),
            max_retransmits=3,
        )
        with pytest.raises(SpmdError) as excinfo:
            run_ring(plan, timeout=3.0)
        assert isinstance(excinfo.value.__cause__, CorruptFrameError)


class TestDuplicateAndDelay:
    def test_duplicate_discarded_exactly_once(self):
        plan = FaultPlan(seed=3, rules=(FaultRule(kind="duplicate", src=1, dst=2),))
        results, report = run_ring(plan)
        assert results[2] == "payload-1"
        assert report.faults_injected == 1
        assert report.faults_detected == 1  # the second copy, discarded
        assert report.retries == 0
        assert report.retransmitted_bytes > 0  # the extra copy's wire cost

    def test_delayed_message_recovered(self):
        # the held message is the channel's only one, so the receiver's
        # backoff pull recovers it (nothing ever overtakes it)
        plan = FaultPlan(
            seed=4,
            rules=(FaultRule(kind="delay", src=3, dst=0, delay_messages=5),),
            retry_delay=0.01,
        )
        results, report = run_ring(plan)
        assert results[0] == "payload-3"
        assert report.faults_injected == 1
        assert report.retries >= 1

    def test_reordering_recovered_via_sequence_numbers(self):
        def two_sends(comm):
            comm.set_phase("exchange")
            if comm.rank == 0:
                comm.send("first", 1, tag=1)
                comm.send("second", 1, tag=2)
                return None
            a = comm.recv(0, tag=1)
            b = comm.recv(0, tag=2)
            return (a, b)

        # hold message 0 until one successor overtakes it: the receiver
        # sees seq 1 first, proves the gap, and pulls seq 0 immediately
        plan = FaultPlan(
            seed=5,
            rules=(FaultRule(kind="delay", src=0, dst=1, delay_messages=1),),
        )
        results, report = run_spmd(2, two_sends, timeout=10.0, fault_plan=plan)
        assert results[1] == ("first", "second")
        assert report.faults_injected == 1
        # two detections: the gap (seq 1 before seq 0 proves the drop) and
        # the held original arriving late as a stale duplicate
        assert report.faults_detected == 2
        assert report.retries == 1


class TestCrashAndStraggle:
    def test_crash_raises_typed_error(self):
        plan = FaultPlan(seed=6, rules=(FaultRule(kind="crash", rank=1),))
        eng = ThreadEngine(4, config=RunConfig(timeout=10.0), fault_plan=plan)
        with pytest.raises(SpmdError) as excinfo:
            eng.run(ring_prog, args_per_rank=ARGS)
        assert isinstance(excinfo.value.__cause__, RankCrashError)

    def test_crash_once_then_engine_retry_succeeds(self):
        plan = FaultPlan(seed=6, rules=(FaultRule(kind="crash", rank=1, max_hits=1),))
        eng = ThreadEngine(4, config=RunConfig(timeout=10.0), fault_plan=plan)
        with pytest.raises(SpmdError):
            eng.run(ring_prog, args_per_rank=ARGS)
        results, _ = eng.run(ring_prog, args_per_rank=ARGS)
        base, _ = run_ring()
        assert results == base

    def test_straggle_slows_but_completes(self):
        plan = FaultPlan(seed=7, rules=(FaultRule(kind="straggle", rank=2,
                                                  seconds=0.05),))
        results, report = run_ring(plan)
        base, _ = run_ring()
        assert results == base
        assert report.faults_injected == 1


class TestDefaultTimeout:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "42.5")
        assert RunConfig.from_env().timeout == 42.5
        assert ThreadEngine(2).config.timeout == 42.5
        assert Cluster(num_pes=2).config.timeout == 42.5

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPMD_TIMEOUT", raising=False)
        assert RunConfig.from_env().timeout == 600.0

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_SPMD_TIMEOUT"):
            RunConfig.from_env()
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "-3")
        with pytest.raises(ValueError, match="positive"):
            RunConfig.from_env()

    def test_explicit_timeout_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "42.5")
        assert Cluster(num_pes=2, timeout=7.0).engine.config.timeout == 7.0


class TestCollectiveAccounting:
    def test_gather_uses_each_ranks_own_size(self):
        def prog(comm):
            # rank r contributes a payload of r+1 bytes
            return comm.gather(b"x" * (comm.rank + 1), root=0)

        results, report = run_spmd(3, prog, timeout=5.0)
        from repro.mpi.serialization import wire_size

        assert results[0] == [b"x", b"xx", b"xxx"]
        expected = sum(wire_size(b"x" * (r + 1)) for r in (1, 2))
        assert report.total_bytes_sent == expected
        # the collective event carries the bottleneck (largest) value
        events = [e for e in report.collectives if e.kind == "gather"]
        assert len(events) == 1
        assert events[0].max_bytes_per_pe == wire_size(b"xxx")

    def test_allreduce_ring_uses_own_sizes_and_bottleneck_event(self):
        def prog(comm):
            return comm.allreduce(b"y" * (comm.rank + 1), op="max")

        _, report = run_spmd(3, prog, timeout=5.0)
        from repro.mpi.serialization import wire_size

        expected = sum(wire_size(b"y" * (r + 1)) for r in range(3))
        assert report.total_bytes_sent == expected
        events = [e for e in report.collectives if e.kind == "allreduce"]
        assert len(events) == 1
        assert events[0].max_bytes_per_pe == wire_size(b"yyy")


def _writable(strings):
    """A packed array over a private, writable copy of the characters."""
    packed = PackedStringArray.from_strings(strings)
    return PackedStringArray(packed.buffer.copy(), packed.offsets)


class TestBlockSeals:
    STRINGS = [b"apple", b"apply", b"banana", b""]

    def test_string_block_seal_round_trip_and_overhead(self):
        plain = StringBlock(self.STRINGS)
        sealed = StringBlock(PackedStringArray.from_strings(self.STRINGS), seal=True)
        strings, _ = sealed.decode_run()
        assert strings.to_list() == self.STRINGS
        assert sealed.wire_bytes() == plain.wire_bytes() + CHECKSUM_WIRE_BYTES

    def test_string_block_tamper_detected(self):
        blk = StringBlock(_writable(self.STRINGS), seal=True)
        blk.strings.buffer[6] ^= 1  # apply -> aqply
        with pytest.raises(CorruptFrameError, match="StringBlock"):
            blk.decode_run()

    def test_lcp_block_seal(self):
        run = sorted(self.STRINGS)
        packed = PackedStringArray.from_strings(run)
        lcps = np.asarray(lcp_array(run), dtype=np.int64)
        sealed = LcpCompressedBlock.encode(packed, lcps, seal=True)
        assert sealed.decode_run()[0].to_list() == run
        plain = LcpCompressedBlock.encode(run, list(lcps))
        assert sealed.wire_bytes() == plain.wire_bytes() + CHECKSUM_WIRE_BYTES

    @pytest.mark.parametrize("target", ["lcp", "run_char", "length"])
    def test_lcp_block_tamper_detected(self, target):
        # the seal covers what the front-coded form is computed from: the
        # run's characters, its lengths and its clipped LCPs
        run = sorted(self.STRINGS)
        sealed = LcpCompressedBlock.encode(_writable(run), lcp_array(run), seal=True)
        offsets = sealed._run.offsets
        if target == "lcp":
            sealed._lcps[2] -= 1  # LCP(apple, apply) = 4 becomes 3
        elif target == "run_char":
            sealed._run.buffer[int(offsets[-1]) - 1] ^= 1  # banana -> banano
        else:
            # a received frame is a fresh object: rebuild the run with one
            # interior offset moved (apple|apply -> appl|eapply)
            shifted = offsets.copy()
            shifted[2] -= 1
            sealed._run = PackedStringArray(sealed._run.buffer, shifted)
        with pytest.raises(CorruptFrameError, match="LcpCompressedBlock"):
            sealed.decode_run()

    def test_lcp_block_seal_survives_pickle(self):
        # the processes engine pickles every block with protocol 5
        run = sorted(self.STRINGS)
        lcps = lcp_array(run)
        packed = PackedStringArray.from_strings([b"head"] + run + [b"tail"])[1:-1]
        sealed = LcpCompressedBlock.encode(packed, lcps, seal=True)
        received = pickle.loads(pickle.dumps(sealed, protocol=5))
        got_run, got_lcps = received.decode_run()
        want_run, want_lcps = sealed.decode_run()
        assert got_run.to_list() == want_run.to_list() == run
        assert got_lcps.tolist() == want_lcps.tolist()
        assert received.wire_bytes() == sealed.wire_bytes()

    def test_unsealed_blocks_have_no_overhead(self):
        blk = StringBlock(_writable(self.STRINGS))
        assert blk._crc is None
        # tampering an unsealed block goes undetected by design (the
        # baseline wire format carries no checksum)
        blk.strings.buffer[0] ^= 1
        blk.decode_run()


class TestRouteFrameSeals:
    def test_frame_seal_wire_overhead(self):
        frame = RouteFrame(0, 1, b"payload", 7)
        sealed = RouteFrame(0, 1, b"payload", 7, seq=3, crc=123)
        assert (
            frame_wire_bytes(sealed)
            == frame_wire_bytes(frame) + 1 + CHECKSUM_WIRE_BYTES
        )

    def test_frame_verify(self):
        from repro.faults import payload_checksum

        good = RouteFrame(0, 1, b"payload", 7, seq=0,
                          crc=payload_checksum(b"payload"))
        good.verify()
        bad = RouteFrame(0, 1, b"payload", 7, seq=0,
                         crc=payload_checksum(b"payload") ^ 1)
        with pytest.raises(CorruptFrameError, match="seq 0"):
            bad.verify()
        # unsealed frames verify trivially
        RouteFrame(0, 1, b"payload", 7).verify()

    @pytest.mark.parametrize("p", [4, 8])
    @pytest.mark.parametrize("spec", [MSSpec(), MSSimpleSpec(), PDMSSpec()],
                             ids=["ms", "ms-simple", "pdms"])
    def test_relayed_frame_tamper_detected(self, monkeypatch, spec, p):
        # a forwarder flips the seal of every frame it relays; the payload
        # (and so every block seal inside it) stays intact, so only the
        # destination's frame.verify() can notice.  On the 3-cube a frame
        # relayed twice has its seal flipped back, but every two-hop frame
        # still arrives with a flipped seal
        split_outgoing = router._split_outgoing
        relayed = []

        def tampering(transit, rank, p, k, peers):
            outgoing, held = split_outgoing(transit, rank, p, k, peers)
            for batch in outgoing.values():
                for frame in batch:
                    if frame.origin != rank:
                        frame.crc ^= 1
                        relayed.append(frame)
            return outgoing, held

        monkeypatch.setattr(router, "_split_outgoing", tampering)
        cluster = Cluster(num_pes=p, engine="threads", wire_checksums=True,
                          exchange_topology="hypercube")
        with pytest.raises(SpmdError) as raised:
            cluster.sort(random_strings(150, 1, 12, seed=12), spec)
        assert relayed
        cause = raised.value
        while cause is not None and not isinstance(cause, CorruptFrameError):
            cause = cause.__cause__
        assert cause is not None, "CorruptFrameError not in the cause chain"
        assert "route frame" in str(cause)


class TestClusterRetries:
    DATA = random_strings(120, 1, 12, seed=11)

    def test_sort_max_retries_recovers_from_crash(self):
        plan = FaultPlan(seed=8, rules=(FaultRule(kind="crash", rank=1,
                                                  after=1, max_hits=1),))
        cluster = Cluster(num_pes=4, timeout=10.0, fault_plan=plan)
        result = cluster.sort(self.DATA, MSSpec(), check=True, max_retries=2)
        baseline = Cluster(num_pes=4, timeout=10.0).sort(self.DATA, MSSpec())
        assert result.outputs_per_pe == baseline.outputs_per_pe
        assert result.lcps_per_pe == baseline.lcps_per_pe
        # the failed attempt's injection is carried into the final report
        assert result.report.faults_injected == 1
        assert result.report.job_retries == 1

    def test_sort_without_retries_fails_fast(self):
        plan = FaultPlan(seed=8, rules=(FaultRule(kind="crash", rank=1,
                                                  after=1, max_hits=1),))
        cluster = Cluster(num_pes=4, timeout=10.0, fault_plan=plan)
        with pytest.raises(SpmdError):
            cluster.sort(self.DATA, MSSpec())

    def test_negative_max_retries_rejected(self):
        cluster = Cluster(num_pes=2)
        with pytest.raises(ValueError):
            cluster.sort(self.DATA, MSSpec(), max_retries=-1)

    def test_retries_exhausted_reraises(self):
        # an unbounded crash rule defeats any retry budget
        plan = FaultPlan(seed=8, rules=(FaultRule(kind="crash", rank=1,
                                                  max_hits=None),))
        cluster = Cluster(num_pes=4, timeout=10.0, fault_plan=plan)
        with pytest.raises(SpmdError):
            cluster.sort(self.DATA, MSSpec(), max_retries=2)

    def test_batch_stream_resumes_at_failed_chunk(self):
        chunks = [random_strings(60, 1, 10, seed=s) for s in (1, 2, 3)]
        # rank 0 enters the splitter phase once per sort: after=1 makes the
        # crash fire on the second batch (chunk index 1)
        plan = FaultPlan(seed=9, rules=(FaultRule(
            kind="crash", rank=0, phase="splitter-determination",
            after=1, max_hits=1),))
        cluster = Cluster(num_pes=2, timeout=10.0, fault_plan=plan)
        stream = cluster.sort_batches(iter(chunks), MSSpec())
        first = next(stream)
        assert first.sorted_strings == sorted(chunks[0])
        with pytest.raises(SpmdError):
            next(stream)  # chunk 1 crashes...
        resumed = next(stream)  # ...and is retried, not skipped
        assert resumed.sorted_strings == sorted(chunks[1])
        third = next(stream)
        assert third.sorted_strings == sorted(chunks[2])
        with pytest.raises(StopIteration):
            next(stream)
        assert stream.batches_done == 3

    def test_batch_stream_max_retries_inline(self):
        chunks = [random_strings(60, 1, 10, seed=s) for s in (4, 5)]
        plan = FaultPlan(seed=10, rules=(FaultRule(
            kind="crash", rank=0, phase="splitter-determination",
            after=1, max_hits=1),))
        cluster = Cluster(num_pes=2, timeout=10.0, fault_plan=plan)
        results = list(cluster.sort_batches(iter(chunks), MSSpec(),
                                            max_retries=1))
        assert [r.sorted_strings for r in results] == [sorted(c) for c in chunks]
        assert results[1].report.job_retries == 1


class TestClusterWireChecksums:
    DATA = random_strings(150, 1, 12, seed=12)

    def test_checksummed_sort_matches_plain_output(self):
        plain = Cluster(num_pes=4).sort(self.DATA, MSSpec(), check=True)
        sealed = Cluster(num_pes=4, wire_checksums=True).sort(
            self.DATA, MSSpec(), check=True
        )
        assert sealed.outputs_per_pe == plain.outputs_per_pe
        assert sealed.lcps_per_pe == plain.lcps_per_pe
        # seals cost wire bytes: 4 per exchanged block
        assert sealed.report.total_bytes_sent > plain.report.total_bytes_sent

    def test_cluster_flag_stays_with_its_cluster(self):
        Cluster(num_pes=2, wire_checksums=True).sort(self.DATA, MSSpec())
        plain = Cluster(num_pes=2).sort(self.DATA, MSSpec())
        unsealed = Cluster(num_pes=2, wire_checksums=False).sort(self.DATA, MSSpec())
        assert plain.report.total_bytes_sent == unsealed.report.total_bytes_sent


class TestCliFaultFlags:
    def test_fault_plan_inline_and_summary(self, capsys):
        from repro.cli import main

        rc = main([
            "sort", "-a", "ms", "-p", "4", "-n", "120", "--check",
            "--exchange-topology", "hypercube",
            "--fault-plan",
            '{"seed": 3, "rules": [{"kind": "drop", "src": 0, "dst": 1}]}',
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "faults             : 1 injected, 1 detected, 1 retried" in out
        assert "retransmit bytes" in out

    def test_fault_plan_from_file_with_retries(self, tmp_path, capsys):
        from repro.cli import main

        plan = FaultPlan(seed=1, rules=(FaultRule(kind="crash", rank=1,
                                                  after=1, max_hits=1),))
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        rc = main([
            "sort", "-a", "ms", "-p", "4", "-n", "120", "--check",
            "--fault-plan", f"@{path}", "--max-retries", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "job retries        : 1" in out

    def test_timeout_flag(self, capsys):
        from repro.cli import main

        rc = main(["sort", "-a", "ms", "-p", "2", "-n", "50",
                   "--timeout", "30"])
        assert rc == 0
