"""Observability pins: tracing invariants and the barrier attribution fix.

Four contracts from ``docs/OBSERVABILITY.md`` are held here:

* **zero-cost off** — untraced runs carry no timeline/metrics attachments
  and their byte accounting is bit-identical to traced runs;
* **barrier attribution** — a straggler's idle time at ``comm.barrier()``
  lands in the barrier account (``TrafficReport.barrier_wait_seconds``
  plus ``barrier`` sub-spans), *not* in the surrounding stage's exclusive
  seconds — the regression this file exists to pin;
* **engine parity** — both backends produce the same span structure for
  the same program (timestamps differ, shapes must not);
* **exportability** — every traced run renders to a schema-valid
  Chrome-trace document and a non-empty waterfall.
"""

from __future__ import annotations

import time

import pytest

from repro.faults import FaultPlan, FaultRule
from repro.mpi import run_spmd
from repro.net.metrics import COUNTERS
from repro.obs import (
    Recorder,
    chrome_trace,
    render_waterfall,
    validate_chrome_trace,
)
from repro.obs.timeline import Timeline
from repro.session import Cluster, MSSpec

STRAGGLE = 0.15  # seconds rank 0 dawdles before the barrier
SLACK = 0.5  # fraction of STRAGGLE the assertions tolerate


def _phased_exchange(comm):
    """A tiny two-phase program with real sends, usable on any engine."""
    comm.set_phase("local-sort")
    payload = bytes([comm.rank]) * 64
    comm.set_phase("exchange")
    peer = comm.size - 1 - comm.rank
    if peer != comm.rank:
        got = comm.sendrecv(payload, peer)
    else:
        got = payload
    comm.barrier()
    return len(got)


def _straggler(comm):
    """Rank 0 sleeps inside phase ``merge``; everyone meets at a barrier."""
    comm.set_phase("merge")
    if comm.rank == 0:
        time.sleep(STRAGGLE)
    comm.barrier()
    comm.set_phase("wrap-up")
    return comm.rank


def _late_sender(comm):
    """Rank 0 sleeps inside phase ``merge``, then sends to rank 1; a barrier follows."""
    comm.set_phase("merge")
    if comm.rank == 0:
        time.sleep(STRAGGLE)
        comm.send(b"late", 1)
    else:
        comm.recv(0)
    comm.barrier()
    comm.set_phase("wrap-up")
    return comm.rank


class TestRecorder:
    def test_ring_buffer_drops_oldest(self):
        rec = Recorder(rank=0, capacity=4)
        for i in range(10):
            rec.instant(f"ev{i}")
        assert rec.dropped == 6
        assert rec.events_recorded == 10
        names = [e[2] for e in rec.events()]
        assert names == ["ev6", "ev7", "ev8", "ev9"]

    def test_export_is_plain_data(self):
        rec = Recorder(rank=3, capacity=16)
        rec.phase("local-sort")
        rec.comm("send", peer=1, nbytes=42)
        rec.finish()
        doc = rec.export()
        assert doc["rank"] == 3
        assert doc["dropped"] == 0
        kinds = [e[0] for e in doc["events"]]
        assert kinds == ["phase", "comm", "finish"]

    def test_trace_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert Cluster(num_pes=1).config.trace is False
        assert Cluster(num_pes=1, trace=True).config.trace is True
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert Cluster(num_pes=1).config.trace is True
        # an explicit knob always beats the environment
        assert Cluster(num_pes=1, trace=False).config.trace is False
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert Cluster(num_pes=1).config.trace is False


class TestTracedRuns:
    def test_untraced_run_has_no_attachments(self, engine):
        _, report = run_spmd(2, _phased_exchange)
        assert report.timeline is None
        assert report.metrics is None

    def test_traced_run_attaches_timeline(self, engine):
        results, report = run_spmd(4, _phased_exchange, trace=True)
        tl = report.timeline
        assert isinstance(tl, Timeline)
        assert tl.num_pes == 4
        assert tl.meta["engine"] == engine
        # every rank contributes phase spans for both stages
        for rank in range(4):
            names = {s.name for s in tl.iter_spans(cat="phase", rank=rank)}
            assert {"local-sort", "exchange"} <= names
        # comm instants record the sendrecv traffic
        comms = list(tl.instants)
        assert any(i.cat == "comm" for i in comms)

    def test_accounting_identical_on_and_off(self, engine):
        results_off, rep_off = run_spmd(4, _phased_exchange)
        results_on, rep_on = run_spmd(4, _phased_exchange, trace=True)
        assert results_on == results_off
        assert rep_on.bytes_sent_per_pe == rep_off.bytes_sent_per_pe
        assert rep_on.messages_per_pe == rep_off.messages_per_pe
        assert dict(rep_on.phase_bytes) == dict(rep_off.phase_bytes)

    def test_chrome_trace_is_schema_valid(self, engine):
        _, report = run_spmd(3, _phased_exchange, trace=True)
        doc = chrome_trace(report.timeline)
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["num_pes"] == 3

    def test_waterfall_renders(self, engine):
        _, report = run_spmd(2, _phased_exchange, trace=True)
        art = render_waterfall(report.timeline)
        assert "pe   0" in art and "pe   1" in art
        assert "local-sort" in art


class TestBarrierAttribution:
    """The satellite regression: straggler wait must not inflate its stage."""

    def test_wait_metered_even_untraced(self, engine):
        _, report = run_spmd(2, _straggler)
        # rank 1 reaches the barrier ~immediately and waits out rank 0's nap
        assert report.barrier_wait_seconds["merge"] >= STRAGGLE * SLACK

    def test_wait_excluded_from_stage_seconds(self, engine):
        _, report = run_spmd(2, _straggler, trace=True)
        tl = report.timeline
        # the waiting rank's merge time, barrier-exclusive, is nearly zero …
        excl = tl.phase_seconds(name="merge", rank=1, exclusive=True)
        assert excl < STRAGGLE * SLACK
        # … while the naive wall-clock reading is straggler-inflated
        wall = tl.phase_seconds(name="merge", rank=1, exclusive=False)
        assert wall >= STRAGGLE * SLACK
        # and the difference shows up as an explicit barrier span
        assert tl.barrier_seconds(rank=1) >= STRAGGLE * SLACK
        # report-level account agrees with the timeline's barrier spans
        assert report.barrier_wait_seconds["merge"] == pytest.approx(
            tl.barrier_seconds(), rel=0.5
        )

    def test_straggler_rank_barely_waits(self, engine):
        _, report = run_spmd(2, _straggler, trace=True)
        # rank 0 arrives last, so its own barrier wait is tiny
        assert report.timeline.barrier_seconds(rank=0) < STRAGGLE * SLACK

    def test_receive_absorbs_the_wait_for_its_sender(self, engine):
        _, report = run_spmd(2, _late_sender, trace=True)
        # rank 1's wait ends with the receive, so nobody waits at the barrier
        assert sum(report.barrier_wait_seconds.values()) < STRAGGLE * SLACK
        merge = report.timeline.phase_seconds(name="merge", rank=1, exclusive=True)
        assert merge >= STRAGGLE * SLACK


class TestClusterTrace:
    def test_traced_sort_attaches_metrics(self, engine):
        import random

        rng = random.Random(7)
        data = [bytes(rng.choices(b"abcdef", k=12)) for _ in range(300)]
        with Cluster(num_pes=4, trace=True) as cluster:
            result = cluster.sort(data, MSSpec(), check=True)
        report = result.report
        assert report.timeline is not None
        snap = report.metrics
        assert snap is not None
        # the derived families named in docs/OBSERVABILITY.md exist
        assert "repro_stage_seconds_total" in snap.names()
        assert "repro_stage_strings_per_second" in snap.names()
        assert "repro_stage_peak_rss_bytes" in snap.names()
        merge_rss = snap.value("repro_stage_peak_rss_bytes", stage="merge")
        assert merge_rss is not None and merge_rss > 0
        # prometheus rendering is well-formed enough to re-read
        text = snap.render_prometheus()
        assert "# TYPE repro_stage_seconds_total counter" in text

    def test_sort_outputs_identical_on_and_off(self, engine):
        import random

        rng = random.Random(11)
        data = [bytes(rng.choices(b"xyz", k=10)) for _ in range(200)]
        with Cluster(num_pes=4) as plain:
            baseline = plain.sort(data, MSSpec())
        with Cluster(num_pes=4, trace=True) as traced:
            observed = traced.sort(data, MSSpec())
        assert observed.sorted_strings == baseline.sorted_strings
        assert (
            observed.report.total_bytes_sent == baseline.report.total_bytes_sent
        )

    def test_every_counter_family_reconciles_after_a_retried_crash(self, engine):
        """Each report-derived family sums to its report total, and a
        failed attempt leaves its fault counts but not its bytes."""
        import random

        rng = random.Random(13)
        data = [bytes(rng.choices(b"abcd", k=14)) for _ in range(400)]
        crash = FaultRule(kind="crash", rank=1, phase="merge", max_hits=1)
        with Cluster(
            num_pes=4, timeout=30.0, trace=True,
            fault_plan=FaultPlan(seed=4, rules=(crash,)),
        ) as cluster:
            report = cluster.sort(data, MSSpec(), check=True, max_retries=1).report
        # the same envelopes on the wire, no fault fired
        with Cluster(
            num_pes=4, timeout=30.0, fault_plan=FaultPlan(seed=4)
        ) as clean:
            baseline = clean.sort(data, MSSpec()).report

        snap = report.metrics
        for counter in COUNTERS:
            assert counter.family in snap.names(), counter.family
            summed = sum(value for _, value in snap.series(counter.family))
            assert summed == pytest.approx(report.total(counter.name)), counter.name

        def family_total(name):
            return sum(value for _, value in snap.series(name))

        assert family_total("repro_stage_bytes_total") == family_total(
            "repro_bytes_sent_total"
        )
        # the crashed attempt's fault counts are kept ...
        assert report.job_retries == 1
        assert family_total("repro_job_retries_total") == 1
        assert report.faults_injected == 1
        assert family_total("repro_faults_injected_total") == 1
        assert report.faults_detected >= 1
        # ... and its traffic is not: the bytes are one clean run's
        assert report.bytes_sent_per_pe == baseline.bytes_sent_per_pe
        assert report.phase_bytes == baseline.phase_bytes
        assert report.chars_inspected_per_pe == baseline.chars_inspected_per_pe
