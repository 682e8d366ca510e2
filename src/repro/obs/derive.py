"""Derived metrics: a labeled snapshot from a finished report + timeline.

The bridge between the accounting layer (:class:`repro.net.metrics.TrafficReport`,
exact byte counters) and the tracing layer (:class:`repro.obs.timeline.Timeline`,
where time went): :func:`run_metrics` populates a
:class:`~repro.obs.registry.MetricsRegistry` with the run's counters and
the derived gauges the ROADMAP asks for — strings/sec per stage (items
over *exclusive* stage seconds, so barrier wait never deflates a stage's
throughput) and peak RSS per stage (boundary-sampled high-water marks) —
and returns the immutable snapshot that attaches to
``TrafficReport.metrics``.

Every series carries the common label set (``algorithm``, ``engine``,
``topology``) plus its own discriminators (``pe``, ``stage``); see
``docs/OBSERVABILITY.md`` for the full naming scheme.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .registry import MetricsRegistry, MetricsSnapshot

__all__ = ["run_metrics"]


def run_metrics(
    report: Any,
    timeline: Any = None,
    labels: Optional[Dict[str, str]] = None,
    num_strings: Optional[int] = None,
) -> MetricsSnapshot:
    """Build the metrics snapshot of one finished run.

    Parameters
    ----------
    report:
        The run's :class:`~repro.net.metrics.TrafficReport` (duck-typed so
        this module needs no import from :mod:`repro.net`).
    timeline:
        The run's :class:`~repro.obs.timeline.Timeline`, when tracing was
        on; ``None`` skips the time-derived series.
    labels:
        Common labels stamped on every series (``algorithm``, ``engine``,
        ``topology``); the report's engine provenance fills ``engine`` when
        absent.
    num_strings:
        Total input strings, for the per-stage strings/sec gauges.
    """
    common: Dict[str, str] = dict(labels or {})
    if "engine" not in common and getattr(report, "engine", ""):
        common["engine"] = report.engine
    reg = MetricsRegistry()

    sent = reg.counter("repro_bytes_sent_total", "Wire bytes sent, per PE.")
    messages = reg.counter("repro_messages_total", "Point-to-point messages sent, per PE.")
    forwarded = reg.counter(
        "repro_forwarded_bytes_total", "Routing-overhead bytes relayed, per PE."
    )
    for pe in range(report.num_pes):
        sent.inc(report.bytes_sent_per_pe[pe], pe=pe, **common)
        messages.inc(report.messages_per_pe[pe], pe=pe, **common)
        if report.forwarded_bytes_per_pe:
            forwarded.inc(report.forwarded_bytes_per_pe[pe], pe=pe, **common)

    stage_bytes = reg.counter("repro_stage_bytes_total", "Wire bytes sent, per stage.")
    for stage, nbytes in sorted(report.phase_bytes.items()):
        stage_bytes.inc(nbytes, stage=stage, **common)

    barrier = reg.counter(
        "repro_barrier_wait_seconds_total",
        "Seconds ranks spent blocked in barrier(), per surrounding stage.",
    )
    for stage, seconds in sorted(getattr(report, "barrier_wait_seconds", {}).items()):
        barrier.inc(seconds, stage=stage, **common)

    _fault_series(reg, report, common)

    retries = reg.counter("repro_job_retries_total", "Whole-job re-runs after failures.")
    retries.inc(getattr(report, "job_retries", 0), **common)

    if timeline is not None:
        _timeline_series(reg, timeline, common, num_strings)
    return reg.snapshot()


def _fault_series(reg: MetricsRegistry, report: Any, common: Dict[str, str]) -> None:
    """Surface the fault subsystem's counters as per-PE series."""
    injected = reg.counter(
        "repro_faults_injected_total", "Faults injected by the active plan, per PE."
    )
    detected = reg.counter(
        "repro_faults_detected_total", "Fault events detected (CRC, gaps), per PE."
    )
    retries = reg.counter(
        "repro_fault_retries_total", "Retransmit pulls initiated, per PE."
    )
    retransmitted = reg.counter(
        "repro_retransmitted_bytes_total", "Recovery traffic wire bytes, per PE."
    )
    pairs = (
        (injected, report.faults_injected_per_pe),
        (detected, report.faults_detected_per_pe),
        (retries, report.retries_per_pe),
        (retransmitted, report.retransmitted_bytes_per_pe),
    )
    for metric, values in pairs:
        for pe, value in enumerate(values):
            metric.inc(value, pe=pe, **common)


def _timeline_series(
    reg: MetricsRegistry,
    timeline: Any,
    common: Dict[str, str],
    num_strings: Optional[int],
) -> None:
    """The time-derived series: stage seconds, strings/sec, peak RSS."""
    seconds = reg.counter(
        "repro_stage_seconds_total",
        "Summed per-rank seconds per stage, exclusive of barrier wait.",
    )
    wall = reg.counter(
        "repro_stage_wall_seconds_total",
        "Summed per-rank seconds per stage, barrier wait included.",
    )
    throughput = reg.gauge(
        "repro_stage_strings_per_second",
        "Input strings over the stage's summed exclusive seconds.",
    )
    exclusive = timeline.stage_seconds(exclusive=True)
    inclusive = timeline.stage_seconds(exclusive=False)
    for stage, secs in exclusive.items():
        seconds.inc(secs, stage=stage, **common)
        wall.inc(inclusive.get(stage, secs), stage=stage, **common)
        if num_strings and secs > 0.0:
            throughput.set(num_strings / secs, stage=stage, **common)

    barrier_spans = reg.counter(
        "repro_barrier_span_seconds_total",
        "Traced barrier-wait seconds, summed over ranks.",
    )
    barrier_spans.inc(timeline.barrier_seconds(), **common)

    rss = reg.gauge(
        "repro_stage_peak_rss_bytes", "Peak resident-set bytes observed per stage."
    )
    for stage, peak in timeline.peak_rss_per_stage().items():
        rss.set(peak, stage=stage, **common)

    dropped = reg.counter(
        "repro_trace_dropped_events_total", "Trace events lost to ring overflow."
    )
    dropped.inc(timeline.dropped_events, **common)

    durations = reg.histogram(
        "repro_span_duration_seconds", "Distribution of phase-span durations."
    )
    for span in timeline.iter_spans(cat="phase"):
        durations.observe(span.duration, stage=span.name, **common)
