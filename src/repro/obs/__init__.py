"""Observability: per-rank phase tracing, metrics, and exportable timelines.

The package instruments *where time goes* the way :mod:`repro.net.metrics`
instruments where bytes go.  Four layers, each usable on its own:

* :mod:`repro.obs.recorder` — a per-rank ring-buffer :class:`Recorder` of
  monotonic-timestamped events (phase changes, barrier begin/end, comm
  events, fault/retransmit instants).  The hot-path contract is *zero cost
  when off*: every instrumentation site is a ``recorder is None`` check.
* :mod:`repro.obs.timeline` — per-rank :class:`Span` reconstruction from
  the raw event streams, rank-offset alignment, exclusive phase seconds
  (barrier wait subtracted), and batch-wise merging.
* :mod:`repro.obs.registry` — labeled metric families (counters, gauges,
  histograms) in a :class:`MetricsSnapshot`, with Prometheus text
  exposition and JSON export.
* :mod:`repro.obs.exporters` — Chrome-trace/Perfetto JSON, a schema
  validator for CI, and a terminal phase-waterfall renderer.

:mod:`repro.obs.derive` bridges the layers: it renders a finished, traced
:class:`~repro.net.metrics.TrafficReport` (its counters and its
:class:`Timeline`) into a labeled :class:`MetricsSnapshot` (strings/sec and
peak RSS per stage, fault counters as series); ``TrafficReport.metrics``
calls it on each read.

Tracing is enabled by ``Cluster(trace=True)``, the ``REPRO_TRACE``
environment variable (:class:`repro.config.RunConfig`), or the CLI's
``--trace`` flag; see
``docs/OBSERVABILITY.md`` for the span taxonomy and overhead bounds.
"""

from .derive import run_metrics
from .exporters import (
    chrome_trace,
    render_waterfall,
    validate_chrome_trace,
    write_chrome_trace,
)
from .recorder import DEFAULT_CAPACITY, Recorder
from .registry import MetricsSnapshot
from .timeline import Instant, Span, Timeline

__all__ = [
    "DEFAULT_CAPACITY",
    "Recorder",
    "Span",
    "Instant",
    "Timeline",
    "MetricsSnapshot",
    "run_metrics",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "render_waterfall",
]
