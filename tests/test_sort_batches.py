"""Streaming batch ingest: laziness, per-batch results, exact merged totals."""

import pytest

from engine_conformance import at_phase
from repro.mpi.engine import SpmdError
from repro.net.metrics import COUNTERS, TrafficMeter, TrafficReport
from repro.session import BatchStream, Cluster, MSSpec, PDMSGolombSpec
from repro.strings.generators import dn_instance, random_strings


def _chunks(n_chunks, per_chunk, seed=1):
    data = random_strings(n_chunks * per_chunk, 1, 12, seed=seed)
    return [data[i * per_chunk : (i + 1) * per_chunk] for i in range(n_chunks)]


class TestSortBatches:
    def test_each_batch_is_a_full_sort(self):
        cluster = Cluster(num_pes=3)
        chunks = _chunks(4, 90)
        results = list(cluster.sort_batches(chunks, MSSpec(), check=True))
        assert len(results) == 4
        for chunk, res in zip(chunks, results):
            assert res.sorted_strings == sorted(chunk)
            assert res.num_strings == len(chunk)

    def test_merged_report_equals_sum_of_batches(self):
        cluster = Cluster(num_pes=4)
        chunks = _chunks(5, 120, seed=2)
        stream = cluster.sort_batches(chunks, MSSpec())
        per_batch = list(stream)
        merged = stream.merged_report

        assert merged.total_bytes_sent == sum(
            r.report.total_bytes_sent for r in per_batch
        )
        for pe in range(4):
            assert merged.bytes_sent_per_pe[pe] == sum(
                r.report.bytes_sent_per_pe[pe] for r in per_batch
            )
            assert merged.messages_per_pe[pe] == sum(
                r.report.messages_per_pe[pe] for r in per_batch
            )
            assert merged.chars_inspected_per_pe[pe] == sum(
                r.report.chars_inspected_per_pe[pe] for r in per_batch
            )
        for phase in {p for r in per_batch for p in r.report.phase_bytes}:
            assert merged.phase_bytes[phase] == sum(
                r.report.phase_bytes.get(phase, 0) for r in per_batch
            )
        assert len(merged.collectives) == sum(
            len(r.report.collectives) for r in per_batch
        )
        assert stream.num_strings == sum(r.num_strings for r in per_batch)
        assert stream.num_chars == sum(r.num_chars for r in per_batch)
        assert stream.batches_done == 5
        assert stream.bytes_per_string() > 0

    def test_ingest_is_lazy(self):
        pulled = []

        def source():
            for i, chunk in enumerate(_chunks(3, 50, seed=3)):
                pulled.append(i)
                yield chunk

        cluster = Cluster(num_pes=2)
        stream = cluster.sort_batches(source(), MSSpec())
        assert pulled == []  # nothing consumed before iteration
        next(stream)
        assert pulled == [0]  # exactly one chunk in memory at a time
        next(stream)
        assert pulled == [0, 1]
        stream.run()
        assert pulled == [0, 1, 2]
        assert stream.batches_done == 3

    def test_run_drains_and_returns_stream(self):
        cluster = Cluster(num_pes=2)
        stream = cluster.sort_batches(_chunks(3, 40, seed=4), "pdms-golomb")
        assert stream.run() is stream
        assert stream.batches_done == 3
        assert stream.merged_report.total_bytes_sent > 0
        assert isinstance(stream, BatchStream)
        assert isinstance(stream.spec, PDMSGolombSpec)

    def test_empty_source(self):
        stream = Cluster(num_pes=3).sort_batches([], MSSpec())
        assert list(stream) == []
        assert stream.batches_done == 0
        assert stream.merged_report.total_bytes_sent == 0
        assert stream.bytes_per_string() == 0.0

    def test_batches_reuse_the_machine(self):
        cluster = Cluster(num_pes=3)
        cluster.sort_batches(_chunks(4, 30, seed=5), MSSpec()).run()
        assert cluster.engine.state_reuses >= 3

    def test_cluster_settings_apply_per_batch(self):
        chunks = [
            dn_instance(num_strings=200, dn=0.5, length=30, seed=6)
            for _ in range(2)
        ]
        direct = Cluster(num_pes=4, exchange_topology="direct")
        routed = Cluster(num_pes=4, exchange_topology="hypercube")
        a = direct.sort_batches(chunks, MSSpec()).run()
        b = routed.sort_batches(chunks, MSSpec()).run()
        # every batch of the routed cluster relays frames through the 2-cube
        assert a.merged_report.forwarded_bytes == 0
        assert b.merged_report.forwarded_bytes > 0
        assert b.merged_report.origin_bytes_sent == a.merged_report.total_bytes_sent

    def test_a_failed_batch_is_resorted_by_the_next_call(self):
        chunks = [random_strings(60, 1, 10, seed=s) for s in (1, 2, 3)]
        stream = Cluster(num_pes=2).sort_batches(iter(chunks), MSSpec())
        assert next(stream).sorted_strings == sorted(chunks[0])
        with at_phase("splitter-determination", rank=0), pytest.raises(SpmdError):
            next(stream)  # chunk 1 fails ...
        # ... and is sorted again, not skipped
        assert next(stream).sorted_strings == sorted(chunks[1])
        assert next(stream).sorted_strings == sorted(chunks[2])
        with pytest.raises(StopIteration):
            next(stream)
        assert stream.batches_done == 3


def _merge(reports):
    """Fold ``reports`` into a fresh report (the inputs stay unmutated)."""
    merged = TrafficReport(reports[0].num_pes)
    for report in reports:
        merged = merged.merged(report)
    return merged


class TestReportFold:
    def test_empty_report_is_zero(self):
        empty = TrafficMeter(2).report()
        assert empty.total_bytes_sent == 0
        assert empty.bytes_sent_per_pe == [0, 0]
        assert empty.phase_bytes == {}

    def test_single_report_is_identity(self):
        res = Cluster(num_pes=2).sort(random_strings(60, 1, 8, seed=7), MSSpec())
        merged = _merge([res.report])
        assert merged.bytes_sent_per_pe == res.report.bytes_sent_per_pe
        assert merged.phase_bytes == res.report.phase_bytes

    def test_forwarded_bytes_merge_additively(self):
        """New routed-delivery counters fold like every other counter."""
        res = [
            Cluster(num_pes=2, exchange_topology="hypercube").sort(
                random_strings(60, 1, 8, seed=s), MSSpec()
            )
            for s in (1, 2)
        ]
        merged = _merge([r.report for r in res])
        assert merged.forwarded_bytes == sum(
            r.report.forwarded_bytes for r in res
        )
        for pe in range(2):
            assert merged.forwarded_bytes_per_pe[pe] == sum(
                r.report.forwarded_bytes_per_pe[pe] for r in res
            )
        for route in merged.route_bytes:
            assert merged.route_bytes[route] == sum(
                r.report.route_bytes.get(route, 0) for r in res
            )
        assert merged.origin_bytes_sent == sum(
            r.report.origin_bytes_sent for r in res
        )

    def test_timeline_and_metrics_attachments_fold(self):
        """Traced batch reports merge their observability attachments.

        Timelines concatenate (every span exactly once, dropped counts
        add); the merged report's metrics render counter series that are
        the batches' sums; the inputs stay unmutated.
        """
        res = [
            Cluster(num_pes=2, trace=True).sort(
                random_strings(60, 1, 8, seed=s), MSSpec()
            )
            for s in (1, 2)
        ]
        reports = [r.report for r in res]
        span_counts = [len(r.timeline.spans) for r in reports]
        sent_before = [
            r.metrics.value("repro_bytes_sent_total", pe=0) for r in reports
        ]

        merged = _merge(reports)
        # spans concatenate: none lost, none double-counted
        assert len(merged.timeline.spans) == sum(span_counts)
        assert merged.timeline.dropped_events == sum(
            r.timeline.dropped_events for r in reports
        )
        assert merged.timeline.meta["merged_runs"] == 2
        # the second run is shifted past the first — spans never interleave
        assert min(
            s.start for s in merged.timeline.spans[span_counts[0]:]
        ) >= reports[0].timeline.duration
        # counter series add exactly
        assert merged.metrics.value(
            "repro_bytes_sent_total", pe=0
        ) == pytest.approx(sum(sent_before))
        # the fold never mutates its inputs (batch reports stay reusable)
        assert [len(r.timeline.spans) for r in reports] == span_counts
        assert [
            r.metrics.value("repro_bytes_sent_total", pe=0) for r in reports
        ] == sent_before

    def test_untraced_reports_fold_without_attachments(self):
        res = [
            Cluster(num_pes=2).sort(random_strings(50, 1, 8, seed=s), MSSpec())
            for s in (3, 4)
        ]
        merged = _merge([r.report for r in res])
        assert merged.timeline is None
        assert merged.metrics is None

    def test_mixed_traced_and_untraced_fold_keeps_the_timeline(self):
        traced = Cluster(num_pes=2, trace=True).sort(
            random_strings(50, 1, 8, seed=5), MSSpec()
        )
        plain = Cluster(num_pes=2).sort(
            random_strings(50, 1, 8, seed=6), MSSpec()
        )
        merged = _merge([plain.report, traced.report])
        assert merged.timeline is not None
        assert len(merged.timeline.spans) == len(traced.report.timeline.spans)

    def test_barrier_wait_seconds_fold_additively(self):
        def leaf(seconds):
            meter = TrafficMeter(2)
            meter.record_barrier_wait(0, "merge", seconds)
            return meter.report()

        merged = _merge([leaf(0.25), leaf(0.5)])
        assert merged.barrier_wait_seconds["merge"] == pytest.approx(0.75)

    def test_mismatched_sizes_rejected(self):
        a = TrafficMeter(1).report()
        b = TrafficMeter(2).report()
        with pytest.raises(ValueError, match="different sizes"):
            a.merged(b)
        with pytest.raises(ValueError, match="different sizes"):
            a.fold(b)

    def test_counts_are_read_only_views(self):
        report = TrafficMeter(2).report()
        with pytest.raises(AttributeError, match="read-only"):
            report.phase_bytes = {"merge": 1}


def _family_total(snap, name):
    return sum(value for _, value in snap.series(name))


def _assert_counters_reconcile(report):
    """Every counter family of ``report.metrics`` sums to the report's total."""
    snap = report.metrics
    for counter in COUNTERS:
        assert counter.family in snap.names(), counter.family
        assert _family_total(snap, counter.family) == pytest.approx(
            report.total(counter.name)
        ), counter.name


class TestMetricsFold:
    """A folded report renders its families from its folded counts and timeline."""

    @pytest.fixture(scope="class")
    def stream(self):
        """The two traced batches' reports and the stream's merged report."""
        chunks = [
            dn_instance(num_strings=300, dn=0.5, length=20, seed=s) for s in (8, 9)
        ]
        stream = Cluster(num_pes=2, trace=True).sort_batches(chunks, MSSpec())
        results = list(stream)
        assert len(results) == 2
        return results, stream.merged_report

    def test_counter_families_sum_to_the_merged_totals(self, stream):
        _results, merged = stream
        _assert_counters_reconcile(merged)

    def test_histogram_counts_add(self, stream):
        results, merged_report = stream
        batches = [r.report.metrics for r in results]
        merged = merged_report.metrics
        hist = "repro_span_duration_seconds"
        stages = {labels["stage"] for snap in batches for labels, _ in snap.series(hist)}
        assert {"local-sort", "merge"} <= stages
        for stage in stages:
            parts = [snap.value(hist, stage=stage) for snap in batches]
            folded = merged.value(hist, stage=stage)
            assert folded["count"] == sum(p["count"] for p in parts)
            for le, count in folded["buckets"].items():
                assert count == sum(p["buckets"][le] for p in parts), (stage, le)
            assert folded["sum"] == pytest.approx(sum(p["sum"] for p in parts))

    def test_throughput_is_the_streams(self, stream):
        results, merged_report = stream
        merged = merged_report.metrics
        strings = sum(r.num_strings for r in results)
        assert merged_report.timeline.meta["num_strings"] == strings
        for stage in ("local-sort", "merge"):
            seconds = sum(r.report.timeline.phase_seconds(name=stage) for r in results)
            assert merged.value(
                "repro_stage_strings_per_second", stage=stage
            ) == pytest.approx(strings / seconds), stage

    def test_peak_rss_is_the_batches_max(self, stream):
        results, merged_report = stream
        family = "repro_stage_peak_rss_bytes"
        peaks = merged_report.metrics.series(family)
        assert peaks
        for labels, peak in peaks:
            stage = labels["stage"]
            assert peak == max(
                r.report.metrics.value(family, stage=stage) or 0.0 for r in results
            ), stage

    def test_mixed_traced_and_untraced_fold_reconciles(self):
        traced = Cluster(num_pes=2, trace=True).sort(
            random_strings(80, 1, 8, seed=10), MSSpec()
        )
        plain = Cluster(num_pes=2).sort(random_strings(80, 1, 8, seed=11), MSSpec())
        for merged in (
            _merge([plain.report, traced.report]),
            _merge([traced.report, plain.report]),
        ):
            assert merged.total_bytes_sent > traced.report.total_bytes_sent
            _assert_counters_reconcile(merged)

    def test_a_fold_renders_under_the_first_runs_labels(self):
        data = random_strings(80, 1, 8, seed=12)
        cluster = Cluster(num_pes=2, trace=True)
        first = cluster.sort(data, MSSpec()).report
        second = cluster.sort(data, PDMSGolombSpec()).report
        snap = first.merged(second).metrics
        algorithms = {
            labels["algorithm"]
            for name in snap.names()
            for labels, _ in snap.series(name)
        }
        assert algorithms == {"ms"}

    @staticmethod
    def _traced_report(engine, seed):
        """A traced MS report at p = 2 on ``engine`` (skipped if it cannot run)."""
        if engine == "processes":
            from repro.mpi.procengine import process_engine_available

            ok, reason = process_engine_available()
            if not ok:
                pytest.skip(reason)
        data = random_strings(80, 1, 8, seed=seed)
        with Cluster(num_pes=2, engine=engine, trace=True) as cluster:
            return cluster.sort(data, MSSpec()).report

    @staticmethod
    def _engine_labels(report):
        snap = report.metrics
        return {
            labels["engine"]
            for name in snap.names()
            for labels, _ in snap.series(name)
        }

    def test_a_fold_across_engines_is_labelled_mixed(self):
        threads = self._traced_report("threads", 13)
        processes = self._traced_report("processes", 13)
        assert self._engine_labels(threads.merged(threads)) == {"threads"}
        for merged in (threads.merged(processes), processes.merged(threads)):
            assert merged.engine == "mixed"
            assert self._engine_labels(merged) == {"mixed"}

    @pytest.mark.parametrize("engine", ["threads", "processes"])
    def test_a_fold_of_one_engine_keeps_its_label(self, engine):
        first = self._traced_report(engine, 14)
        second = self._traced_report(engine, 15)
        merged = first.merged(second)
        assert merged.engine == engine
        assert self._engine_labels(merged) == {engine}
