"""Golden renderings of a clock-free traced report.

The report is built by hand: ``TrafficMeter`` sends and local work plus a
``Timeline.from_exports`` of hand-written recorder events, so no clock or
RSS reading enters it.  ``report.metrics`` must render it to exactly the
Prometheus text and JSON below.  Both literals were captured from the
metrics path that stored a snapshot built through a mutable registry
(labels and input size passed in, not read from ``timeline.meta``), so
they pin that rendering on demand changed no byte.
"""

import json

from repro.net.metrics import TrafficMeter
from repro.obs.timeline import Timeline

MIB = 1 << 20

#: the two ranks' recorder exports: phases with boundary RSS samples, a
#: barrier sub-span, comm and mark instants, and three dropped events
EXPORTS = [
    {"rank": 0, "dropped": 0, "events": [
        ("phase", 100.0, "local-sort", 1 * MIB),
        ("comm", 100.25, "send", (1, 40)),
        ("phase", 100.5, "exchange", 2 * MIB),
        ("begin", 100.625, "barrier", None),
        ("end", 100.75, "barrier", None),
        ("phase", 101.0, "merge", 2 * MIB),
        ("instant", 101.25, "retransmit", {"peer": 1}),
        ("finish", 101.5, None, 3 * MIB),
    ]},
    {"rank": 1, "dropped": 3, "events": [
        ("phase", 100.125, "local-sort", 1 * MIB),
        ("phase", 100.375, "exchange", MIB + MIB // 2),
        ("comm", 100.5, "send", (0, 24)),
        ("phase", 100.875, "merge", 4 * MIB),
        ("finish", 102.0, None, 4 * MIB),
    ]},
]


def golden_report():
    meter = TrafficMeter(2)
    meter.engine = "threads"
    meter.record_send(0, 1, 8, "splitter-determination")
    meter.record_send(0, 1, 40, "exchange")
    meter.record_send(1, 0, 24, "exchange")
    meter.record_local_work(0, 120, 10)
    meter.record_local_work(1, 96, 8)
    meter.record_barrier_wait(0, "exchange", 0.125)
    report = meter.report()
    report.add("route_bytes", "hypercube-dim0", 16)
    report.add("job_retries", None, 1)
    report.timeline = Timeline.from_exports(EXPORTS, num_pes=2)
    # what Cluster.sort stamps on a traced run
    report.timeline.meta.update(
        algorithm="ms", engine="threads", topology="direct", num_strings=48
    )
    return report


def test_prometheus_text_is_byte_identical():
    assert golden_report().metrics.render_prometheus() == GOLDEN_PROMETHEUS


def test_json_document_is_byte_identical():
    rendered = json.dumps(golden_report().metrics.to_json())
    # json.dumps keeps key order and the int/float distinction, so equal
    # dumps mean an equal document down to every value's type
    assert rendered == json.dumps(json.loads(GOLDEN_JSON))


GOLDEN_PROMETHEUS = """\
# HELP repro_barrier_span_seconds_total Traced barrier-wait seconds, summed over ranks.
# TYPE repro_barrier_span_seconds_total counter
repro_barrier_span_seconds_total{algorithm="ms",engine="threads",topology="direct"} 0.125
# HELP repro_barrier_wait_seconds_total Seconds ranks spent blocked in barrier(), per surrounding stage.
# TYPE repro_barrier_wait_seconds_total counter
repro_barrier_wait_seconds_total{algorithm="ms",engine="threads",stage="exchange",topology="direct"} 0.125
# HELP repro_bytes_received_total Wire bytes received, per PE.
# TYPE repro_bytes_received_total counter
repro_bytes_received_total{algorithm="ms",engine="threads",pe="0",topology="direct"} 24
repro_bytes_received_total{algorithm="ms",engine="threads",pe="1",topology="direct"} 48
# HELP repro_bytes_sent_total Wire bytes sent, per PE.
# TYPE repro_bytes_sent_total counter
repro_bytes_sent_total{algorithm="ms",engine="threads",pe="0",topology="direct"} 48
repro_bytes_sent_total{algorithm="ms",engine="threads",pe="1",topology="direct"} 24
# HELP repro_chars_inspected_total Characters inspected by local sorting and merging, per PE.
# TYPE repro_chars_inspected_total counter
repro_chars_inspected_total{algorithm="ms",engine="threads",pe="0",topology="direct"} 120
repro_chars_inspected_total{algorithm="ms",engine="threads",pe="1",topology="direct"} 96
# HELP repro_fault_retries_total Retransmit pulls initiated, per PE.
# TYPE repro_fault_retries_total counter
repro_fault_retries_total{algorithm="ms",engine="threads",pe="0",topology="direct"} 0
repro_fault_retries_total{algorithm="ms",engine="threads",pe="1",topology="direct"} 0
# HELP repro_faults_detected_total Fault events detected (CRC, gaps), per PE.
# TYPE repro_faults_detected_total counter
repro_faults_detected_total{algorithm="ms",engine="threads",pe="0",topology="direct"} 0
repro_faults_detected_total{algorithm="ms",engine="threads",pe="1",topology="direct"} 0
# HELP repro_faults_injected_total Faults injected by the active plan, per PE.
# TYPE repro_faults_injected_total counter
repro_faults_injected_total{algorithm="ms",engine="threads",pe="0",topology="direct"} 0
repro_faults_injected_total{algorithm="ms",engine="threads",pe="1",topology="direct"} 0
# HELP repro_forwarded_bytes_total Routing-overhead bytes relayed, per PE.
# TYPE repro_forwarded_bytes_total counter
repro_forwarded_bytes_total{algorithm="ms",engine="threads",pe="0",topology="direct"} 0
repro_forwarded_bytes_total{algorithm="ms",engine="threads",pe="1",topology="direct"} 0
# HELP repro_items_processed_total Strings handled by local sorting and merging, per PE.
# TYPE repro_items_processed_total counter
repro_items_processed_total{algorithm="ms",engine="threads",pe="0",topology="direct"} 10
repro_items_processed_total{algorithm="ms",engine="threads",pe="1",topology="direct"} 8
# HELP repro_job_retries_total Whole-job re-runs after failures.
# TYPE repro_job_retries_total counter
repro_job_retries_total{algorithm="ms",engine="threads",topology="direct"} 1
# HELP repro_messages_total Point-to-point messages sent, per PE.
# TYPE repro_messages_total counter
repro_messages_total{algorithm="ms",engine="threads",pe="0",topology="direct"} 2
repro_messages_total{algorithm="ms",engine="threads",pe="1",topology="direct"} 1
# HELP repro_retransmitted_bytes_total Recovery traffic wire bytes, per PE.
# TYPE repro_retransmitted_bytes_total counter
repro_retransmitted_bytes_total{algorithm="ms",engine="threads",pe="0",topology="direct"} 0
repro_retransmitted_bytes_total{algorithm="ms",engine="threads",pe="1",topology="direct"} 0
# HELP repro_route_bytes_total Routed-delivery wire bytes, per route phase.
# TYPE repro_route_bytes_total counter
repro_route_bytes_total{algorithm="ms",engine="threads",route="hypercube-dim0",topology="direct"} 16
# HELP repro_span_duration_seconds Distribution of phase-span durations.
# TYPE repro_span_duration_seconds histogram
repro_span_duration_seconds_bucket{algorithm="ms",engine="threads",le="0.0001",stage="exchange",topology="direct"} 0
repro_span_duration_seconds_bucket{algorithm="ms",engine="threads",le="0.001",stage="exchange",topology="direct"} 0
repro_span_duration_seconds_bucket{algorithm="ms",engine="threads",le="0.01",stage="exchange",topology="direct"} 0
repro_span_duration_seconds_bucket{algorithm="ms",engine="threads",le="0.1",stage="exchange",topology="direct"} 0
repro_span_duration_seconds_bucket{algorithm="ms",engine="threads",le="1.0",stage="exchange",topology="direct"} 2
repro_span_duration_seconds_bucket{algorithm="ms",engine="threads",le="10.0",stage="exchange",topology="direct"} 2
repro_span_duration_seconds_bucket{algorithm="ms",engine="threads",le="inf",stage="exchange",topology="direct"} 2
repro_span_duration_seconds_sum{algorithm="ms",engine="threads",stage="exchange",topology="direct"} 1.0
repro_span_duration_seconds_count{algorithm="ms",engine="threads",stage="exchange",topology="direct"} 2
repro_span_duration_seconds_bucket{algorithm="ms",engine="threads",le="0.0001",stage="local-sort",topology="direct"} 0
repro_span_duration_seconds_bucket{algorithm="ms",engine="threads",le="0.001",stage="local-sort",topology="direct"} 0
repro_span_duration_seconds_bucket{algorithm="ms",engine="threads",le="0.01",stage="local-sort",topology="direct"} 0
repro_span_duration_seconds_bucket{algorithm="ms",engine="threads",le="0.1",stage="local-sort",topology="direct"} 0
repro_span_duration_seconds_bucket{algorithm="ms",engine="threads",le="1.0",stage="local-sort",topology="direct"} 2
repro_span_duration_seconds_bucket{algorithm="ms",engine="threads",le="10.0",stage="local-sort",topology="direct"} 2
repro_span_duration_seconds_bucket{algorithm="ms",engine="threads",le="inf",stage="local-sort",topology="direct"} 2
repro_span_duration_seconds_sum{algorithm="ms",engine="threads",stage="local-sort",topology="direct"} 0.75
repro_span_duration_seconds_count{algorithm="ms",engine="threads",stage="local-sort",topology="direct"} 2
repro_span_duration_seconds_bucket{algorithm="ms",engine="threads",le="0.0001",stage="merge",topology="direct"} 0
repro_span_duration_seconds_bucket{algorithm="ms",engine="threads",le="0.001",stage="merge",topology="direct"} 0
repro_span_duration_seconds_bucket{algorithm="ms",engine="threads",le="0.01",stage="merge",topology="direct"} 0
repro_span_duration_seconds_bucket{algorithm="ms",engine="threads",le="0.1",stage="merge",topology="direct"} 0
repro_span_duration_seconds_bucket{algorithm="ms",engine="threads",le="1.0",stage="merge",topology="direct"} 1
repro_span_duration_seconds_bucket{algorithm="ms",engine="threads",le="10.0",stage="merge",topology="direct"} 2
repro_span_duration_seconds_bucket{algorithm="ms",engine="threads",le="inf",stage="merge",topology="direct"} 2
repro_span_duration_seconds_sum{algorithm="ms",engine="threads",stage="merge",topology="direct"} 1.625
repro_span_duration_seconds_count{algorithm="ms",engine="threads",stage="merge",topology="direct"} 2
# HELP repro_stage_bytes_total Wire bytes sent, per stage.
# TYPE repro_stage_bytes_total counter
repro_stage_bytes_total{algorithm="ms",engine="threads",stage="exchange",topology="direct"} 64
repro_stage_bytes_total{algorithm="ms",engine="threads",stage="splitter-determination",topology="direct"} 8
# HELP repro_stage_peak_rss_bytes Peak resident-set bytes observed per stage.
# TYPE repro_stage_peak_rss_bytes gauge
repro_stage_peak_rss_bytes{algorithm="ms",engine="threads",stage="exchange",topology="direct"} 4194304
repro_stage_peak_rss_bytes{algorithm="ms",engine="threads",stage="local-sort",topology="direct"} 2097152
repro_stage_peak_rss_bytes{algorithm="ms",engine="threads",stage="merge",topology="direct"} 4194304
# HELP repro_stage_seconds_total Summed per-rank seconds per stage, exclusive of barrier wait.
# TYPE repro_stage_seconds_total counter
repro_stage_seconds_total{algorithm="ms",engine="threads",stage="exchange",topology="direct"} 0.875
repro_stage_seconds_total{algorithm="ms",engine="threads",stage="local-sort",topology="direct"} 0.75
repro_stage_seconds_total{algorithm="ms",engine="threads",stage="merge",topology="direct"} 1.625
# HELP repro_stage_strings_per_second Input strings over the stage's summed exclusive seconds.
# TYPE repro_stage_strings_per_second gauge
repro_stage_strings_per_second{algorithm="ms",engine="threads",stage="exchange",topology="direct"} 54.857142857142854
repro_stage_strings_per_second{algorithm="ms",engine="threads",stage="local-sort",topology="direct"} 64
repro_stage_strings_per_second{algorithm="ms",engine="threads",stage="merge",topology="direct"} 29.53846153846154
# HELP repro_stage_wall_seconds_total Summed per-rank seconds per stage, barrier wait included.
# TYPE repro_stage_wall_seconds_total counter
repro_stage_wall_seconds_total{algorithm="ms",engine="threads",stage="exchange",topology="direct"} 1
repro_stage_wall_seconds_total{algorithm="ms",engine="threads",stage="local-sort",topology="direct"} 0.75
repro_stage_wall_seconds_total{algorithm="ms",engine="threads",stage="merge",topology="direct"} 1.625
# HELP repro_trace_dropped_events_total Trace events lost to ring overflow.
# TYPE repro_trace_dropped_events_total counter
repro_trace_dropped_events_total{algorithm="ms",engine="threads",topology="direct"} 3
# HELP repro_transported_bytes_total Bytes the engine's data plane moved, per PE.
# TYPE repro_transported_bytes_total counter
repro_transported_bytes_total{algorithm="ms",engine="threads",pe="0",topology="direct"} 0
repro_transported_bytes_total{algorithm="ms",engine="threads",pe="1",topology="direct"} 0
"""

GOLDEN_JSON = """\
{"metrics": {
 "repro_barrier_span_seconds_total": {"kind": "counter", "help": "Traced barrier-wait seconds, summed over ranks.", "samples": [
  {"labels": {"algorithm": "ms", "engine": "threads", "topology": "direct"}, "value": 0.125}
 ]},
 "repro_barrier_wait_seconds_total": {"kind": "counter", "help": "Seconds ranks spent blocked in barrier(), per surrounding stage.", "samples": [
  {"labels": {"algorithm": "ms", "engine": "threads", "stage": "exchange", "topology": "direct"}, "value": 0.125}
 ]},
 "repro_bytes_received_total": {"kind": "counter", "help": "Wire bytes received, per PE.", "samples": [
  {"labels": {"algorithm": "ms", "engine": "threads", "pe": "0", "topology": "direct"}, "value": 24.0},
  {"labels": {"algorithm": "ms", "engine": "threads", "pe": "1", "topology": "direct"}, "value": 48.0}
 ]},
 "repro_bytes_sent_total": {"kind": "counter", "help": "Wire bytes sent, per PE.", "samples": [
  {"labels": {"algorithm": "ms", "engine": "threads", "pe": "0", "topology": "direct"}, "value": 48.0},
  {"labels": {"algorithm": "ms", "engine": "threads", "pe": "1", "topology": "direct"}, "value": 24.0}
 ]},
 "repro_chars_inspected_total": {"kind": "counter", "help": "Characters inspected by local sorting and merging, per PE.", "samples": [
  {"labels": {"algorithm": "ms", "engine": "threads", "pe": "0", "topology": "direct"}, "value": 120.0},
  {"labels": {"algorithm": "ms", "engine": "threads", "pe": "1", "topology": "direct"}, "value": 96.0}
 ]},
 "repro_fault_retries_total": {"kind": "counter", "help": "Retransmit pulls initiated, per PE.", "samples": [
  {"labels": {"algorithm": "ms", "engine": "threads", "pe": "0", "topology": "direct"}, "value": 0.0},
  {"labels": {"algorithm": "ms", "engine": "threads", "pe": "1", "topology": "direct"}, "value": 0.0}
 ]},
 "repro_faults_detected_total": {"kind": "counter", "help": "Fault events detected (CRC, gaps), per PE.", "samples": [
  {"labels": {"algorithm": "ms", "engine": "threads", "pe": "0", "topology": "direct"}, "value": 0.0},
  {"labels": {"algorithm": "ms", "engine": "threads", "pe": "1", "topology": "direct"}, "value": 0.0}
 ]},
 "repro_faults_injected_total": {"kind": "counter", "help": "Faults injected by the active plan, per PE.", "samples": [
  {"labels": {"algorithm": "ms", "engine": "threads", "pe": "0", "topology": "direct"}, "value": 0.0},
  {"labels": {"algorithm": "ms", "engine": "threads", "pe": "1", "topology": "direct"}, "value": 0.0}
 ]},
 "repro_forwarded_bytes_total": {"kind": "counter", "help": "Routing-overhead bytes relayed, per PE.", "samples": [
  {"labels": {"algorithm": "ms", "engine": "threads", "pe": "0", "topology": "direct"}, "value": 0.0},
  {"labels": {"algorithm": "ms", "engine": "threads", "pe": "1", "topology": "direct"}, "value": 0.0}
 ]},
 "repro_items_processed_total": {"kind": "counter", "help": "Strings handled by local sorting and merging, per PE.", "samples": [
  {"labels": {"algorithm": "ms", "engine": "threads", "pe": "0", "topology": "direct"}, "value": 10.0},
  {"labels": {"algorithm": "ms", "engine": "threads", "pe": "1", "topology": "direct"}, "value": 8.0}
 ]},
 "repro_job_retries_total": {"kind": "counter", "help": "Whole-job re-runs after failures.", "samples": [
  {"labels": {"algorithm": "ms", "engine": "threads", "topology": "direct"}, "value": 1.0}
 ]},
 "repro_messages_total": {"kind": "counter", "help": "Point-to-point messages sent, per PE.", "samples": [
  {"labels": {"algorithm": "ms", "engine": "threads", "pe": "0", "topology": "direct"}, "value": 2.0},
  {"labels": {"algorithm": "ms", "engine": "threads", "pe": "1", "topology": "direct"}, "value": 1.0}
 ]},
 "repro_retransmitted_bytes_total": {"kind": "counter", "help": "Recovery traffic wire bytes, per PE.", "samples": [
  {"labels": {"algorithm": "ms", "engine": "threads", "pe": "0", "topology": "direct"}, "value": 0.0},
  {"labels": {"algorithm": "ms", "engine": "threads", "pe": "1", "topology": "direct"}, "value": 0.0}
 ]},
 "repro_route_bytes_total": {"kind": "counter", "help": "Routed-delivery wire bytes, per route phase.", "samples": [
  {"labels": {"algorithm": "ms", "engine": "threads", "route": "hypercube-dim0", "topology": "direct"}, "value": 16.0}
 ]},
 "repro_span_duration_seconds": {"kind": "histogram", "help": "Distribution of phase-span durations.", "samples": [
  {"labels": {"algorithm": "ms", "engine": "threads", "stage": "exchange", "topology": "direct"}, "value": {"buckets": {"0.0001": 0, "0.001": 0, "0.01": 0, "0.1": 0, "1.0": 2, "10.0": 2, "inf": 2}, "sum": 1.0, "count": 2}},
  {"labels": {"algorithm": "ms", "engine": "threads", "stage": "local-sort", "topology": "direct"}, "value": {"buckets": {"0.0001": 0, "0.001": 0, "0.01": 0, "0.1": 0, "1.0": 2, "10.0": 2, "inf": 2}, "sum": 0.75, "count": 2}},
  {"labels": {"algorithm": "ms", "engine": "threads", "stage": "merge", "topology": "direct"}, "value": {"buckets": {"0.0001": 0, "0.001": 0, "0.01": 0, "0.1": 0, "1.0": 1, "10.0": 2, "inf": 2}, "sum": 1.625, "count": 2}}
 ]},
 "repro_stage_bytes_total": {"kind": "counter", "help": "Wire bytes sent, per stage.", "samples": [
  {"labels": {"algorithm": "ms", "engine": "threads", "stage": "exchange", "topology": "direct"}, "value": 64.0},
  {"labels": {"algorithm": "ms", "engine": "threads", "stage": "splitter-determination", "topology": "direct"}, "value": 8.0}
 ]},
 "repro_stage_peak_rss_bytes": {"kind": "gauge", "help": "Peak resident-set bytes observed per stage.", "samples": [
  {"labels": {"algorithm": "ms", "engine": "threads", "stage": "exchange", "topology": "direct"}, "value": 4194304.0},
  {"labels": {"algorithm": "ms", "engine": "threads", "stage": "local-sort", "topology": "direct"}, "value": 2097152.0},
  {"labels": {"algorithm": "ms", "engine": "threads", "stage": "merge", "topology": "direct"}, "value": 4194304.0}
 ]},
 "repro_stage_seconds_total": {"kind": "counter", "help": "Summed per-rank seconds per stage, exclusive of barrier wait.", "samples": [
  {"labels": {"algorithm": "ms", "engine": "threads", "stage": "exchange", "topology": "direct"}, "value": 0.875},
  {"labels": {"algorithm": "ms", "engine": "threads", "stage": "local-sort", "topology": "direct"}, "value": 0.75},
  {"labels": {"algorithm": "ms", "engine": "threads", "stage": "merge", "topology": "direct"}, "value": 1.625}
 ]},
 "repro_stage_strings_per_second": {"kind": "gauge", "help": "Input strings over the stage's summed exclusive seconds.", "samples": [
  {"labels": {"algorithm": "ms", "engine": "threads", "stage": "exchange", "topology": "direct"}, "value": 54.857142857142854},
  {"labels": {"algorithm": "ms", "engine": "threads", "stage": "local-sort", "topology": "direct"}, "value": 64.0},
  {"labels": {"algorithm": "ms", "engine": "threads", "stage": "merge", "topology": "direct"}, "value": 29.53846153846154}
 ]},
 "repro_stage_wall_seconds_total": {"kind": "counter", "help": "Summed per-rank seconds per stage, barrier wait included.", "samples": [
  {"labels": {"algorithm": "ms", "engine": "threads", "stage": "exchange", "topology": "direct"}, "value": 1.0},
  {"labels": {"algorithm": "ms", "engine": "threads", "stage": "local-sort", "topology": "direct"}, "value": 0.75},
  {"labels": {"algorithm": "ms", "engine": "threads", "stage": "merge", "topology": "direct"}, "value": 1.625}
 ]},
 "repro_trace_dropped_events_total": {"kind": "counter", "help": "Trace events lost to ring overflow.", "samples": [
  {"labels": {"algorithm": "ms", "engine": "threads", "topology": "direct"}, "value": 3.0}
 ]},
 "repro_transported_bytes_total": {"kind": "counter", "help": "Bytes the engine's data plane moved, per PE.", "samples": [
  {"labels": {"algorithm": "ms", "engine": "threads", "pe": "0", "topology": "direct"}, "value": 0.0},
  {"labels": {"algorithm": "ms", "engine": "threads", "pe": "1", "topology": "direct"}, "value": 0.0}
 ]}
}}
"""
