"""Wire-checksum overhead on the exchange pipeline — perf-smoke gate (PR 7).

The fault subsystem seals every exchange block (:class:`StringBlock`,
:class:`LcpCompressedBlock`) with a CRC32 over its wire content, verified
at decode.  Sealing is opt-in (``Cluster(wire_checksums=True)``, which
builds every block with ``seal=True``), so the clean path pays nothing — but once armed, the seal
must stay cheap enough that turning detection on in production-style runs
is a non-decision.  This module measures exactly that price.

The gated measurement is one PE's share of a large distributed sort run
end-to-end through the packed (default) pipeline — local ``sort``,
``lcp``, ``partition``, ``encode``, ``wire``, ``decode``, ``merge`` — with
wire checksums off and then on.  Each bucket is sealed exactly once (the
LCP-front-coded block, the paper's exchange format): the seal is computed
at ``encode``, charged at ``wire`` and verified at ``decode``, while the
sort/partition/merge stages are identical shared work, exactly as in a
real job.  The acceptance gate asserts the sealed pipeline is **< 5%
slower** end to end, best of a few attempts.  Stages are timed on the
process CPU clock, not the wall clock: the pipeline runs on this one
thread, so CPU time is its work, while wall time also counts the moments
the thread sat descheduled behind other tenants of a shared host — noise
of the same size as the gate.  Attempts alternate which pipeline runs
first, so neither pays a systematic warm-up or second-run cost.

The JSON additionally records framing-only micro numbers — the seal cost
concentrated on just encode/wire/decode with nothing to amortise against.
Those are trajectory data, not gates: the framing stages are zero-copy
(microseconds for ~10⁵ strings), so *any* per-byte integrity check is a
large multiple of them.

Decoded runs and merged output must be bit-identical sealed vs unsealed,
and the sealed wire volume must exceed the unsealed by exactly
``CHECKSUM_WIRE_BYTES`` per block.  Results land in
``benchmarks/out/BENCH_PR7.json``;
the CI perf-smoke job runs this module and archives the JSON next to the
PR 6 trajectory.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from conftest import results_path, scaled
from repro.bench.harness import peak_rss_bytes
from repro.dist.exchange import LcpCompressedBlock, StringBlock
from repro.dist.partition import (
    select_splitters,
    split_into_buckets,
    string_based_samples,
)
from repro.faults import CHECKSUM_WIRE_BYTES
from repro.sequential.lcp_losertree import lcp_multiway_merge_packed
from repro.sequential.msd_radix import msd_radix_sort
from repro.strings.generators import commoncrawl_like
from repro.strings.packed import (
    PackedStringArray,
    packed_lcp_array,
)

NUM_STRINGS = scaled(60_000, minimum=10_000)
NUM_DESTINATIONS = 8
OVERHEAD_GATE = 0.05  # sealed pipeline: at most 5% over unsealed
ATTEMPTS = 6

_RESULTS_PATH = results_path("BENCH_PR7.json")


def _timed(fn, reps=4):
    """Best-of-``reps`` CPU time (first runs pay page-fault warmup)."""
    best = float("inf")
    result = None
    for _ in range(reps):
        t0 = time.process_time()
        result = fn()
        best = min(best, time.process_time() - t0)
    return best, result


@pytest.fixture(scope="module")
def workload():
    """One PE's unsorted block, its sorted run, and splitters (packed)."""
    corpus = commoncrawl_like(NUM_STRINGS, seed=11)
    packed = PackedStringArray.from_strings(corpus)
    srt, _ = msd_radix_sort(packed)
    samples = string_based_samples(srt.to_list(), 16 * NUM_DESTINATIONS)
    splitters = select_splitters(sorted(samples), NUM_DESTINATIONS)
    return packed, splitters


def _pipeline(packed, splitters, sealed):
    """One PE end to end: sort .. merge; per-stage best-of-reps times."""
    t_sort, (srt, _) = _timed(lambda: msd_radix_sort(packed))
    t_lcp, lcps = _timed(lambda: packed_lcp_array(srt))
    t_part, buckets = _timed(lambda: split_into_buckets(srt, lcps, splitters))
    t_enc, blocks = _timed(
        lambda: [LcpCompressedBlock.encode(s, h, seal=sealed) for s, h in buckets]
    )
    t_wire, wires = _timed(lambda: [b.wire_bytes() for b in blocks])
    t_dec, decoded = _timed(lambda: [b.decode_run() for b in blocks])
    runs = [run for run, _ in decoded]
    run_lcps = [np.asarray(h, dtype=np.int64) for _, h in decoded]
    t_mrg, (merged, merged_lcps) = _timed(
        lambda: lcp_multiway_merge_packed(runs, run_lcps)
    )
    times = {
        "sort": t_sort,
        "lcp": t_lcp,
        "partition": t_part,
        "encode": t_enc,
        "wire": t_wire,
        "decode": t_dec,
        "merge": t_mrg,
    }
    return times, wires, merged, merged_lcps


def _framing_only(buckets, sealed, compressed):
    """Seal cost with nothing to amortise: just encode -> wire -> decode."""
    if compressed:
        t_enc, blocks = _timed(
            lambda: [LcpCompressedBlock.encode(s, h, seal=sealed) for s, h in buckets]
        )
    else:
        t_enc, blocks = _timed(
            lambda: [StringBlock(s, h, seal=sealed) for s, h in buckets]
        )
    t_wire, _ = _timed(lambda: [b.wire_bytes() for b in blocks])
    t_dec, _ = _timed(lambda: [b.decode_run() for b in blocks])
    return t_enc + t_wire + t_dec


def _stage_table(off_times, on_times):
    return {
        stage: {
            "unsealed_seconds": round(off_times[stage], 6),
            "sealed_seconds": round(on_times[stage], 6),
            "overhead": round(on_times[stage] / off_times[stage] - 1.0, 4)
            if off_times[stage] > 0
            else None,
        }
        for stage in off_times
    }


def test_wire_checksum_overhead_under_gate(workload):
    packed, splitters = workload
    n = len(packed)

    best = None
    for attempt in range(ATTEMPTS):
        arms = {}
        for sealed in (False, True) if attempt % 2 == 0 else (True, False):
            arms[sealed] = _pipeline(packed, splitters, sealed=sealed)
        off_times, off_wires, off_merged, off_mlcps = arms[False]
        on_times, on_wires, on_merged, on_mlcps = arms[True]

        # identity: the seal changes wire volume by exactly its 4 bytes per
        # block and nothing else
        assert on_wires == [w + CHECKSUM_WIRE_BYTES for w in off_wires]
        assert on_merged.to_list() == off_merged.to_list()
        assert on_mlcps.tolist() == off_mlcps.tolist()

        overhead = sum(on_times.values()) / sum(off_times.values()) - 1.0
        if best is None or overhead < best[0]:
            best = (overhead, off_times, on_times)
        if best[0] < OVERHEAD_GATE * 0.6:
            break
    overhead, off_times, on_times = best

    # framing-only micro numbers (trajectory, not gated): seal arithmetic
    # against zero-copy framing
    srt, _ = msd_radix_sort(packed)
    lcps = packed_lcp_array(srt)
    packed_buckets = split_into_buckets(srt, lcps, splitters)
    framing = {}
    for compressed in (True, False):
        off = _framing_only(packed_buckets, False, compressed)
        on = _framing_only(packed_buckets, True, compressed)
        key = f"packed_{'lcp_block' if compressed else 'string_block'}"
        framing[key] = {
            "unsealed_seconds": round(off, 6),
            "sealed_seconds": round(on, 6),
            "overhead": round(on / off - 1.0, 4),
        }

    payload = {
        "benchmark": "wire-checksum seal overhead (one PE end to end)",
        "num_strings": n,
        "num_blocks": len(packed_buckets),
        "bench_scale": os.environ.get("REPRO_BENCH_SCALE", "1.0"),
        "pipeline": {
            "stages": _stage_table(off_times, on_times),
            "unsealed_seconds": round(sum(off_times.values()), 6),
            "sealed_seconds": round(sum(on_times.values()), 6),
            "overhead": round(overhead, 4),
            "gate": OVERHEAD_GATE,
        },
        "framing_only": framing,
        "seal_bytes_per_block": CHECKSUM_WIRE_BYTES,
        "peak_rss_bytes": peak_rss_bytes(),
    }
    _RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    assert overhead < OVERHEAD_GATE, (
        f"wire checksums cost {overhead * 100:.1f}% on the one-PE pipeline "
        f"(gate {OVERHEAD_GATE * 100:.0f}%); stages: "
        + ", ".join(
            f"{k}={v['overhead']}"
            for k, v in _stage_table(off_times, on_times).items()
        )
    )
