"""Derived metrics: the labeled families of a finished, traced report.

:func:`run_metrics` renders the report's counter table (one family per
counter, read through ``TrafficReport.series()``) and its timeline's time
series — stage seconds, strings/sec per stage over *exclusive* stage
seconds (so barrier wait never deflates a stage's throughput), peak RSS
per stage — into a :class:`~repro.obs.registry.MetricsSnapshot`.
``TrafficReport.metrics`` calls it on every read; nothing stores it.

Every series carries the run labels (``algorithm``, ``engine``,
``topology``) that ``Cluster.sort`` stamps into ``timeline.meta``, plus
its own discriminator (``pe``, ``stage``, ``route``); see
``docs/OBSERVABILITY.md`` for the naming scheme.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Tuple

from .registry import MetricsSnapshot

__all__ = ["run_metrics"]

#: histogram buckets, in seconds (span durations)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, float("inf")
)

#: the run labels stamped on every series, read from ``timeline.meta``
_RUN_LABELS = ("algorithm", "engine", "topology")


def run_metrics(report: Any) -> MetricsSnapshot:
    """The metric families of one finished report.

    ``report`` is a :class:`~repro.net.metrics.TrafficReport` (duck-typed
    so this module needs no import from :mod:`repro.net`).  Its counter
    table gives one counter family per counter; its ``timeline``, when
    the run traced, gives the time-derived series, and the timeline's
    ``meta`` gives the run labels and ``num_strings``, the input size of
    the per-stage strings/sec gauges.  The report's engine provenance
    fills ``engine`` when the meta has none, and overrides it when it
    reads ``"mixed"`` (a fold of runs on different engines).  Counter
    values are floats and samples are sorted by their label set.
    """
    timeline = report.timeline
    meta = timeline.meta if timeline is not None else {}
    common = {k: meta[k] for k in _RUN_LABELS if k in meta}
    if report.engine == "mixed" or ("engine" not in common and report.engine):
        common["engine"] = report.engine
    families: Dict[str, Dict[str, Any]] = {}

    def family(name: str, kind: str, help: str, samples: Iterable) -> None:
        series = {
            tuple(sorted((k, str(v)) for k, v in {**own, **common}.items())): value
            for own, value in samples
        }
        families[name] = {
            "kind": kind,
            "help": help,
            "samples": [(dict(key), value) for key, value in sorted(series.items())],
        }

    for counter, samples in report.series():
        family(counter.family, "counter", counter.help, (
            ({counter.label: key}, 0.0 + value)
            for key, value in samples
        ))
    if timeline is not None:
        _timeline_families(family, timeline, meta.get("num_strings"))
    return MetricsSnapshot(families=dict(sorted(families.items())))


def _timeline_families(family: Callable[..., None], timeline: Any, num_strings: Any) -> None:
    """Stage seconds, strings/sec, peak RSS and span durations, added through ``family``."""
    exclusive = timeline.stage_seconds(exclusive=True)
    inclusive = timeline.stage_seconds(exclusive=False)
    family(
        "repro_stage_seconds_total", "counter",
        "Summed per-rank seconds per stage, exclusive of barrier wait.",
        (({"stage": stage}, 0.0 + secs) for stage, secs in exclusive.items()),
    )
    family(
        "repro_stage_wall_seconds_total", "counter",
        "Summed per-rank seconds per stage, barrier wait included.",
        (({"stage": stage}, 0.0 + inclusive.get(stage, secs))
         for stage, secs in exclusive.items()),
    )
    family(
        "repro_stage_strings_per_second", "gauge",
        "Input strings over the stage's summed exclusive seconds.",
        (({"stage": stage}, num_strings / secs)
         for stage, secs in exclusive.items() if num_strings and secs > 0.0),
    )
    family(
        "repro_barrier_span_seconds_total", "counter",
        "Traced barrier-wait seconds, summed over ranks.",
        [({}, 0.0 + timeline.barrier_seconds())],
    )
    family(
        "repro_stage_peak_rss_bytes", "gauge", "Peak resident-set bytes observed per stage.",
        (({"stage": stage}, float(peak))
         for stage, peak in timeline.peak_rss_per_stage().items()),
    )
    family(
        "repro_trace_dropped_events_total", "counter", "Trace events lost to ring overflow.",
        [({}, 0.0 + timeline.dropped_events)],
    )
    durations: Dict[str, List[float]] = {}
    for span in timeline.iter_spans(cat="phase"):
        durations.setdefault(span.name, []).append(span.duration)
    family(
        "repro_span_duration_seconds", "histogram", "Distribution of phase-span durations.",
        (({"stage": stage}, _histogram(values)) for stage, values in durations.items()),
    )


def _histogram(values: List[float]) -> Dict[str, Any]:
    """One histogram sample: cumulative bucket counts, sum and count."""
    total = 0.0
    for value in values:  # in span order, so the float sum is reproducible
        total += value
    return {
        "buckets": {str(le): sum(v <= le for v in values) for le in DEFAULT_BUCKETS},
        "sum": total,
        "count": len(values),
    }
