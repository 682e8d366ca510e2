"""Tracing overhead on full sorts — perf-smoke gate (PR 10).

``repro.obs`` promises two bounds (``docs/OBSERVABILITY.md``): tracing
off costs nothing (every site is one ``is None`` attribute check), and
tracing on stays cheap enough that leaving ``REPRO_TRACE=1`` armed on a
production-style run is a non-decision.  This module measures both.

The gated measurement is a whole distributed sort (``Cluster.sort``,
multiway mergesort, threads engine) timed untraced and traced in pairs.
The threads engine runs every rank inside this process, so the process
CPU time of a sort is the work it did, tracing included; the gate reads
that clock rather than wall time, which also counts the seconds the ranks
sat descheduled behind other tenants of a shared host (on 2 vCPUs, wall
samples of the same ~0.1 s sort spread by +-30%, enough to trip a 5% gate
at no real overhead).  Each pair starts from a collected heap and the
pairs alternate which arm runs first, so neither arm systematically pays
for the other's garbage.  The test takes the *minimum* observed overhead
across attempts before asserting it is **< 5%**.  Identity is asserted
alongside: traced and untraced sorts produce the same output and the same
wire-byte accounting.

The JSON additionally records trajectory data (not gated): the wall-clock
times of the gated pair, per-stage
barrier-exclusive seconds from the traced run's timeline, raw
``Recorder`` throughput (events/second into the ring buffer — the
microbenchmark bound on any per-event cost), and ring-overflow behaviour
at a deliberately tiny capacity.  Results land in
``benchmarks/out/BENCH_PR10.json``;
the CI perf-smoke job runs this module and archives the JSON next to the
earlier trajectories.
"""

from __future__ import annotations

import gc
import json
import os
import time

import pytest

from benchscale import results_path, scaled
from repro.obs.recorder import peak_rss_bytes
from repro.obs import Recorder
from repro.session import Cluster, MSSpec
from repro.strings.generators import commoncrawl_like

NUM_STRINGS = scaled(20_000, minimum=4_000)
NUM_PES = 4
OVERHEAD_GATE = 0.05  # traced sort: at most 5% over untraced
ATTEMPTS = 10
RECORDER_EVENTS = 200_000

_RESULTS_PATH = results_path("BENCH_PR10.json")


@pytest.fixture(scope="module")
def corpus():
    return commoncrawl_like(NUM_STRINGS, seed=23)


def _sort_once(data, trace):
    """One full sort on a fresh cluster: (cpu_seconds, wall_seconds, result)."""
    gc.collect()
    with Cluster(num_pes=NUM_PES, trace=trace) as cluster:
        w0 = time.perf_counter()
        c0 = time.process_time()
        result = cluster.sort(data, MSSpec())
        cpu = time.process_time() - c0
        wall = time.perf_counter() - w0
    return cpu, wall, result


def _sort_pair(data, attempt):
    """One untraced and one traced sort, the first arm alternating by attempt."""
    if attempt % 2 == 0:
        off = _sort_once(data, trace=False)
        on = _sort_once(data, trace=True)
    else:
        on = _sort_once(data, trace=True)
        off = _sort_once(data, trace=False)
    return off, on


def test_trace_overhead_under_gate(corpus):
    best = None
    for attempt in range(ATTEMPTS):
        (c_off, w_off, res_off), (c_on, w_on, res_on) = _sort_pair(corpus, attempt)

        # identity: tracing observes the run, it never changes it
        assert res_on.sorted_strings == res_off.sorted_strings
        assert (
            res_on.report.bytes_sent_per_pe == res_off.report.bytes_sent_per_pe
        )
        assert dict(res_on.report.phase_bytes) == dict(
            res_off.report.phase_bytes
        )
        assert res_off.report.timeline is None
        assert res_on.report.timeline is not None

        overhead = c_on / c_off - 1.0
        if best is None or overhead < best[0]:
            best = (overhead, c_off, c_on, w_off, w_on, res_on)
        if best[0] < OVERHEAD_GATE * 0.4:
            break
    attempts = attempt + 1
    overhead, c_off, c_on, w_off, w_on, traced = best

    timeline = traced.report.timeline
    stage_seconds = {
        stage: round(secs, 6)
        for stage, secs in timeline.stage_seconds(exclusive=True).items()
    }

    # recorder microbenchmark: the upper bound on per-event cost
    rec = Recorder(rank=0, capacity=RECORDER_EVENTS)
    t0 = time.perf_counter()
    for i in range(RECORDER_EVENTS):
        rec.comm("send", peer=1, nbytes=i)
    rec_elapsed = time.perf_counter() - t0
    events_per_second = RECORDER_EVENTS / rec_elapsed

    # ring overflow: a tiny buffer drops oldest events, never grows or fails
    small = Recorder(rank=0, capacity=256)
    for i in range(1024):
        small.comm("send", peer=1, nbytes=i)
    assert small.dropped == 1024 - 256
    assert len(small.events()) == 256

    payload = {
        "benchmark": "timeline tracing overhead (full sort, threads engine)",
        "num_strings": len(corpus),
        "num_pes": NUM_PES,
        "bench_scale": os.environ.get("REPRO_BENCH_SCALE", "1.0"),
        "sort": {
            "untraced_cpu_seconds": round(c_off, 6),
            "traced_cpu_seconds": round(c_on, 6),
            "overhead": round(overhead, 4),
            "gate": OVERHEAD_GATE,
            "attempts": attempts,
            "untraced_seconds": round(w_off, 6),
            "traced_seconds": round(w_on, 6),
            "wall_overhead": round(w_on / w_off - 1.0, 4),
        },
        "traced_run": {
            "spans": len(timeline.spans),
            "instants": len(timeline.instants),
            "dropped_events": timeline.dropped_events,
            "stage_seconds_exclusive": stage_seconds,
            "barrier_seconds": round(timeline.barrier_seconds(), 6),
        },
        "recorder": {
            "events": RECORDER_EVENTS,
            "seconds": round(rec_elapsed, 6),
            "events_per_second": round(events_per_second),
        },
        "peak_rss_bytes": peak_rss_bytes(),
    }
    _RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    assert overhead < OVERHEAD_GATE, (
        f"tracing cost {overhead * 100:.1f}% on a full sort "
        f"(gate {OVERHEAD_GATE * 100:.0f}%; "
        f"untraced {c_off:.3f} CPU-s, traced {c_on:.3f} CPU-s)"
    )
    # the recorder must sustain well beyond any realistic event rate
    assert events_per_second > 1e5
