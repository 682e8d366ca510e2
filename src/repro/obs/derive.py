"""Derived metrics: a labeled snapshot from a finished report + timeline.

The bridge between the accounting layer (:class:`repro.net.metrics.TrafficReport`,
exact byte counters) and the tracing layer (:class:`repro.obs.timeline.Timeline`,
where time went): :func:`run_metrics` populates a
:class:`~repro.obs.registry.MetricsRegistry` with the run's counters (one
family per counter of the report's table, read through
``TrafficReport.series()``) and the derived gauges the ROADMAP asks for —
strings/sec per stage (items over *exclusive* stage seconds, so barrier
wait never deflates a stage's throughput) and peak RSS per stage
(boundary-sampled high-water marks) — and returns the immutable snapshot
that attaches to
``TrafficReport.metrics``.

Every series carries the common label set (``algorithm``, ``engine``,
``topology``) plus its own discriminators (``pe``, ``stage``, ``route``); see
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

    for counter, samples in report.series():
        metric = reg.counter(counter.family, counter.help)
        for key, value in samples:
            own = {counter.label: key} if counter.label else {}
            metric.inc(value, **own, **common)

    if timeline is not None:
        _timeline_series(reg, timeline, common, num_strings)
    return reg.snapshot()


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
