"""Micro-benchmark of the packed (vectorized) hot path — end-to-end (PR 6).

Measures, stage by stage, one PE's share of a large distributed sort with
the packed representation carried end-to-end (sort → exchange → merge):

* ``sort``       — local sort of the unsorted block (vectorized
  ``np.argsort``/``np.lexsort`` key sort vs the scalar MSD radix
  recursion, the oracle ``oracles.msd_radix``; packing cost charged to
  the packed side);
* ``lcp``        — LCP array of the locally sorted run (packing included);
* ``partition``  — cutting the run into per-destination buckets;
* ``encode``     — LCP front coding of every bucket: the packed side clips
  each bucket's LCPs and keeps the run, building no suffix byte (``wire``
  then accounts the front-coded form from the two arrays), timed against
  the scalar encoder that builds every ``(lcp, suffix)`` entry;
* ``wire``       — varint/payload wire-byte accounting of every block;
* ``decode``     — yielding the received runs to the merge
  (``decode_run()``: a packed run crosses the exchange boundary with *no*
  per-string materialization, where the scalar path rebuilds a
  ``list[bytes]``);
* ``merge``      — multiway LCP merge of the received runs (batched
  segment emission into a packed output vs the per-string loser tree).

Each stage runs twice: once over ``list[bytes]`` with the scalar code and
once over :class:`PackedStringArray` with the vectorized kernels.  The
exchange blocks hold packed runs only, so the scalar comparand of the
encode, wire and decode stages — the list-backed front-coding encoder, its
wire-byte count and its decode — lives in this module, as
``_scalar_lcp_array`` does.  The acceptance gates assert the exchange aggregate
(lcp + partition + encode + wire + decode, the same stages the PR 2
trajectory gated) is **≥ 5× faster**, the full end-to-end aggregate with
the new sort and merge stages is **≥ 3× faster**, and every stage clears
its own floor (see ``STAGE_FLOORS`` — notably ``decode ≥ 3×``, up from
the ~1.05× the PR 2 materializing decode was stuck at).  Crucially, wire
bytes, decoded runs and merged output must be bit-identical.

Results (strings/second per stage plus peak RSS) are written to
``benchmarks/out/BENCH_PR6.json`` so future PRs have a trajectory to regress
against; the CI perf-smoke job runs exactly this module and archives the JSON.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from benchscale import results_path, scaled
from oracles.lcp import lcp
from oracles.losertree import lcp_multiway_merge
from oracles.msd_radix import msd_radix_sort
from repro.obs.recorder import peak_rss_bytes
from repro.dist.exchange import LcpCompressedBlock
from repro.dist.partition import split_into_buckets, string_based_samples, select_splitters
from repro.sequential.lcp_losertree import lcp_multiway_merge_packed
from repro.mpi.serialization import varint_size
from repro.sequential.vector_sort import vector_sort_with_lcp
from repro.strings.generators import commoncrawl_like
from repro.strings.packed import PackedStringArray, packed_lcp_array

# the ROADMAP's target scale: one PE's share of a large exchange
NUM_STRINGS = scaled(100_000, minimum=20_000)
NUM_DESTINATIONS = 8
SPEEDUP_GATE = 5.0
END_TO_END_GATE = 3.0

# the PR 2 trajectory's aggregate: the exchange stages only (sort and
# merge were added in PR 6 and get their own end-to-end aggregate — the
# sort stage moves the most absolute data, so folding it into the old
# aggregate would redefine what the 5x gate measures)
_EXCHANGE_STAGES = ("lcp", "partition", "encode", "wire", "decode")

# per-stage regression floors (speedup of packed over scalar).  ``decode``
# is the PR 6 tentpole: ``decode_run()`` hands the merge a packed run
# without materializing strings, where PR 2's ``decode()``-both-sides
# measurement was pinned at ~1.05x.  ``sort`` is bounded by key-column
# construction on this corpus (long strings -> lexsort fallback), so its
# floor is modest.
STAGE_FLOORS = {
    "sort": 1.3,
    "lcp": 2.5,
    "partition": 2.5,
    "encode": 2.5,
    "decode": 3.0,
    "merge": 4.0,
}

_RESULTS_PATH = results_path("BENCH_PR6.json")


def _scalar_lcp_array(strings):
    out = [0] * len(strings)
    for i in range(1, len(strings)):
        out[i] = lcp(strings[i - 1], strings[i])
    return out


def _scalar_encode(strings, lcps):
    """The list-backed front coder: one ``(lcp, suffix)`` entry per string."""
    if len(strings) != len(lcps):
        raise ValueError("strings and lcps must have equal length")
    entries = []
    prev_len = 0
    for i, (s, h) in enumerate(zip(strings, lcps)):
        h = 0 if i == 0 else min(h, len(s), prev_len)
        entries.append((h, s[h:]))
        prev_len = len(s)
    return entries


def _scalar_wire_bytes(entries):
    """Varint count + per-string (varint LCP, varint suffix length, suffix)."""
    total = varint_size(len(entries))
    for h, suffix in entries:
        total += varint_size(h) + varint_size(len(suffix)) + len(suffix)
    return total


def _scalar_decode(entries):
    """Reconstruct ``(strings, lcps)`` from the front-coded entries."""
    strings = []
    lcps = []
    prev = b""
    for h, suffix in entries:
        if h > len(prev):
            raise ValueError(
                f"corrupt LCP-compressed block: LCP {h} exceeds the "
                f"previous string's length {len(prev)}"
            )
        s = prev[:h] + suffix
        strings.append(s)
        lcps.append(h)
        prev = s
    return strings, lcps


def _timed(fn, reps=4):
    """Best-of-``reps`` wall time (first runs pay page-fault warmup)."""
    best = float("inf")
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


@pytest.fixture(scope="module")
def local_run():
    """One PE's unsorted block, its sorted run, and splitters."""
    corpus = commoncrawl_like(NUM_STRINGS, seed=11)
    srt, lcps = msd_radix_sort(corpus)
    samples = string_based_samples(srt, 16 * NUM_DESTINATIONS)
    splitters = select_splitters(sorted(samples), NUM_DESTINATIONS)
    return corpus, srt, lcps, splitters


def _measure_pipelines(corpus, srt, splitters):
    """One measurement pass: per-stage best-of-reps times for both paths."""
    # -- scalar pipeline (the pre-packed code path) ----------------------------
    t_sort_s, (sorted_s, sort_lcps_s) = _timed(lambda: msd_radix_sort(corpus))
    t_lcp_s, h_s = _timed(lambda: _scalar_lcp_array(srt))
    t_part_s, buckets_s = _timed(lambda: split_into_buckets(srt, h_s, splitters))
    t_enc_s, blocks_s = _timed(lambda: [_scalar_encode(s, h) for s, h in buckets_s])
    t_wire_s, wires_s = _timed(lambda: [_scalar_wire_bytes(b) for b in blocks_s])
    t_dec_s, decoded_s = _timed(lambda: [_scalar_decode(b) for b in blocks_s])
    runs_s = [run for run, _ in decoded_s]
    run_lcps_s = [hs for _, hs in decoded_s]
    t_mrg_s, (merged_s, merged_lcps_s) = _timed(
        lambda: lcp_multiway_merge(runs_s, run_lcps_s)
    )

    # -- packed pipeline (packing cost charged to sort / lcp) ------------------
    t_sort_p, (sorted_p, sort_lcps_p) = _timed(
        lambda: vector_sort_with_lcp(PackedStringArray.from_strings(corpus))
    )

    def packed_lcp():
        arr = PackedStringArray.from_strings(srt)
        return arr, packed_lcp_array(arr)

    t_lcp_p, (arr, h_p) = _timed(packed_lcp)
    t_part_p, buckets_p = _timed(lambda: split_into_buckets(arr, h_p, splitters))
    t_enc_p, blocks_p = _timed(
        lambda: [LcpCompressedBlock.encode(s, h) for s, h in buckets_p]
    )
    t_wire_p, wires_p = _timed(lambda: [b.wire_bytes() for b in blocks_p])
    t_dec_p, decoded_p = _timed(lambda: [b.decode_run() for b in blocks_p])
    runs_p = [run for run, _ in decoded_p]
    run_lcps_p = [np.asarray(hs, dtype=np.int64) for _, hs in decoded_p]
    t_mrg_p, (merged_p, merged_lcps_p) = _timed(
        lambda: lcp_multiway_merge_packed(runs_p, run_lcps_p)
    )

    # -- identity: the packed path must change nothing but the speed ----------
    assert sorted_p.to_list() == sorted_s
    assert sort_lcps_p.tolist() == sort_lcps_s
    assert h_p.tolist() == h_s
    assert wires_p == wires_s
    assert [s for run in runs_p for s in run] == [s for run in runs_s for s in run]
    assert [int(h) for hs in run_lcps_p for h in hs] == [
        h for hs in run_lcps_s for h in hs
    ]
    assert merged_p.to_list() == merged_s
    assert merged_lcps_p.tolist() == merged_lcps_s

    scalar_times = {
        "sort": t_sort_s,
        "lcp": t_lcp_s,
        "partition": t_part_s,
        "encode": t_enc_s,
        "wire": t_wire_s,
        "decode": t_dec_s,
        "merge": t_mrg_s,
    }
    packed_times = {
        "sort": t_sort_p,
        "lcp": t_lcp_p,
        "partition": t_part_p,
        "encode": t_enc_p,
        "wire": t_wire_p,
        "decode": t_dec_p,
        "merge": t_mrg_p,
    }
    return scalar_times, packed_times


def test_packed_exchange_hotpath_speedup(local_run):
    corpus, srt, lcps, splitters = local_run
    n = len(srt)
    stages = {}

    # wall-clock gates flake under noisy-neighbour CPU contention; keep the
    # best of a few attempts (each stage is already best-of-reps inside)
    def _exchange_ratio(scalar_times, packed_times):
        return sum(scalar_times[s] for s in _EXCHANGE_STAGES) / sum(
            packed_times[s] for s in _EXCHANGE_STAGES
        )

    best = None
    for attempt in range(3):
        scalar_times, packed_times = _measure_pipelines(corpus, srt, splitters)
        ratio = _exchange_ratio(scalar_times, packed_times)
        floors_ok = all(
            scalar_times[s] / packed_times[s] >= floor * 1.1
            for s, floor in STAGE_FLOORS.items()
        )
        if best is None or ratio > best[0]:
            best = (ratio, scalar_times, packed_times)
        if best[0] >= SPEEDUP_GATE * 1.1 and floors_ok:
            break
    _, scalar_times, packed_times = best
    for stage in scalar_times:
        s, p = scalar_times[stage], packed_times[stage]
        stages[stage] = {
            "scalar_seconds": round(s, 6),
            "packed_seconds": round(p, 6),
            "scalar_strings_per_sec": round(n / s) if s > 0 else None,
            "packed_strings_per_sec": round(n / p) if p > 0 else None,
            "speedup": round(s / p, 2) if p > 0 else None,
            "floor": STAGE_FLOORS.get(stage),
        }

    exch_s = sum(scalar_times[s] for s in _EXCHANGE_STAGES)
    exch_p = sum(packed_times[s] for s in _EXCHANGE_STAGES)
    speedup = exch_s / exch_p
    total_s = sum(scalar_times.values())
    total_p = sum(packed_times.values())
    e2e_speedup = total_s / total_p
    payload = {
        "benchmark": "packed end-to-end hot path (one PE: sort, exchange, merge)",
        "num_strings": n,
        "num_destinations": NUM_DESTINATIONS,
        "bench_scale": os.environ.get("REPRO_BENCH_SCALE", "1.0"),
        "stages": stages,
        "aggregate": {
            "scalar_seconds": round(exch_s, 6),
            "packed_seconds": round(exch_p, 6),
            "scalar_strings_per_sec": round(n / exch_s),
            "packed_strings_per_sec": round(n / exch_p),
            "speedup": round(speedup, 2),
            "gate": SPEEDUP_GATE,
            "stages": list(_EXCHANGE_STAGES),
        },
        "end_to_end": {
            "scalar_seconds": round(total_s, 6),
            "packed_seconds": round(total_p, 6),
            "scalar_strings_per_sec": round(n / total_s),
            "packed_strings_per_sec": round(n / total_p),
            "speedup": round(e2e_speedup, 2),
            "gate": END_TO_END_GATE,
        },
        "peak_rss_bytes": peak_rss_bytes(),
    }
    _RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    assert speedup >= SPEEDUP_GATE, (
        f"packed exchange path only {speedup:.1f}x faster than scalar "
        f"(gate {SPEEDUP_GATE}x); stages: "
        + ", ".join(f"{k}={v['speedup']}x" for k, v in stages.items())
    )
    assert e2e_speedup >= END_TO_END_GATE, (
        f"packed end-to-end path only {e2e_speedup:.1f}x faster than "
        f"scalar (gate {END_TO_END_GATE}x)"
    )
    for stage, floor in STAGE_FLOORS.items():
        got = scalar_times[stage] / packed_times[stage]
        assert got >= floor, (
            f"stage '{stage}' only {got:.2f}x faster than scalar "
            f"(floor {floor}x)"
        )
