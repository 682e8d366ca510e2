"""Acceptance gate of the routed multi-level all-to-all — PR 5.

Runs the Step 3 bucket exchange (plus the LCP loser-tree merge, so decode
work is realistic) at benchmark scale on a simulated machine, once per
delivery strategy (``direct`` / ``hypercube`` / ``grid``,
:mod:`repro.net.router`), and gates the claims of Section II that were
previously only *assumed* by the cost-model formulas:

* **identity** — merged outputs, LCP arrays and **origin** wire bytes are
  bit-identical across all three strategies (each bucket leaves its origin
  exactly once, however it is routed);
* **measured volume inflation** — the hypercube's measured total volume
  stays within ``log2(p) x`` the direct volume (each frame travels at most
  ``log2(p)`` hops; uniform destinations average ``log2(p)/2``), the
  grid's within ``2 x``;
* **startup reduction** — per-PE message counts drop from ``p - 1``
  (direct) to exactly ``log2(p)`` (hypercube) and ``(r - 1) + (c - 1)``
  (grid);
* **model vs measured** — the measured per-PE bottleneck stays under the
  inflation ``MachineModel.alltoall_hypercube`` / ``alltoall_grid`` charge
  for the recorded origin bottleneck, and the modelled latency ordering
  (hypercube < grid < direct for ``p = 8``) matches the startup counts.

Results are written to ``benchmarks/out/BENCH_PR5.json`` (volumes, inflation
factors, startup counts, modelled times) so future PRs have a trajectory to regress
against.
"""

from __future__ import annotations

import json
import math
import os
import time

import pytest

from conftest import results_path, scaled
from repro.dist.exchange import exchange_buckets
from repro.dist.partition import (
    select_splitters,
    split_into_buckets,
    string_based_samples,
)
from repro.mpi.engine import run_spmd
from repro.net.cost_model import DEFAULT_MACHINE
from repro.net.topology import grid_dims, hypercube_dimension
from repro.sequential.lcp_losertree import lcp_multiway_merge
from repro.strings.generators import dn_instance
from repro.strings.packed import PackedStringArray, packed_lcp_array, packed_sort

NUM_STRINGS_PER_PE = scaled(50_000, minimum=10_000)
NUM_PES = 8

_RESULTS_PATH = results_path("BENCH_PR5.json")


@pytest.fixture(scope="module")
def sorted_blocks():
    """Per-PE locally sorted packed runs plus globally agreed splitters."""
    blocks = []
    samples = []
    for rank in range(NUM_PES):
        corpus = dn_instance(
            num_strings=NUM_STRINGS_PER_PE, dn=0.5, length=40, seed=500 + rank
        )
        arr = packed_sort(PackedStringArray.from_strings(corpus))
        lcps = packed_lcp_array(arr)
        blocks.append((arr, lcps))
        samples.extend(string_based_samples(arr, 16 * NUM_PES))
    splitters = select_splitters(sorted(samples), NUM_PES)
    return blocks, splitters


def _exchange_and_merge(comm, arr, lcps, splitters, topology):
    """One PE of the Step 3 + Step 4 pipeline under one delivery strategy."""
    buckets = split_into_buckets(arr, lcps, splitters)
    received = exchange_buckets(
        comm, buckets, lcp_compression=True, topology=topology
    )
    with comm.phase("merge"):
        out, out_lcps = lcp_multiway_merge(
            [run for run, _ in received], [h for _, h in received]
        )
    return out, out_lcps


def _run(blocks, splitters, topology):
    t0 = time.perf_counter()
    results, report = run_spmd(
        NUM_PES,
        _exchange_and_merge,
        args_per_rank=[(arr, lcps) for arr, lcps in blocks],
        common_args=(splitters, topology),
    )
    return results, report, time.perf_counter() - t0


def test_multilevel_exchange_gate(sorted_blocks):
    blocks, splitters = sorted_blocks
    d = hypercube_dimension(NUM_PES)
    rows, cols = grid_dims(NUM_PES)

    runs = {}
    for topology in ("direct", "hypercube", "grid"):
        runs[topology] = _run(blocks, splitters, topology)
    direct_results, direct_report, direct_wall = runs["direct"]

    # -- identity: routing changes delivery, never what is computed ----------
    for topology in ("hypercube", "grid"):
        results, report, _ = runs[topology]
        for rank in range(NUM_PES):
            assert results[rank][0] == direct_results[rank][0]
            assert results[rank][1] == direct_results[rank][1]
        assert report.origin_bytes_sent == direct_report.total_bytes_sent
        assert (
            report.chars_inspected_per_pe == direct_report.chars_inspected_per_pe
        )
    assert direct_report.forwarded_bytes == 0

    # -- measured volume inflation stays within the modelled factors ---------
    _, hyper_report, hyper_wall = runs["hypercube"]
    _, grid_report, grid_wall = runs["grid"]
    direct_total = direct_report.total_bytes_sent
    assert hyper_report.total_bytes_sent <= d * direct_total, (
        f"hypercube volume {hyper_report.total_bytes_sent} exceeds "
        f"log2(p)={d} x direct volume {direct_total}"
    )
    assert hyper_report.total_bytes_sent > direct_total  # inflation is real
    assert grid_report.total_bytes_sent <= 2.05 * direct_total

    # -- startup counts: p-1 direct, log2(p) hypercube, (r-1)+(c-1) grid -----
    assert direct_report.messages_per_pe == [NUM_PES - 1] * NUM_PES
    assert hyper_report.messages_per_pe == [d] * NUM_PES
    assert grid_report.messages_per_pe == [(rows - 1) + (cols - 1)] * NUM_PES

    # -- model vs measured: the formulas' inflation is an upper envelope -----
    h = max(direct_report.bytes_sent_per_pe)  # origin bottleneck
    assert max(hyper_report.bytes_sent_per_pe) <= d * h
    beta_only = DEFAULT_MACHINE
    hyper_event = [
        e for e in hyper_report.collectives if e.kind == "alltoall-hypercube"
    ]
    grid_event = [e for e in grid_report.collectives if e.kind == "alltoall-grid"]
    assert len(hyper_event) == 1 and len(grid_event) == 1
    assert hyper_event[0].max_bytes_per_pe == h
    # bandwidth: modelled inflated volume bounds the measured bottleneck
    assert beta_only.alltoall_hypercube(h, NUM_PES) >= beta_only.beta * max(
        hyper_report.bytes_sent_per_pe
    )
    assert beta_only.alltoall_grid(h, NUM_PES) >= beta_only.beta * max(
        grid_report.bytes_sent_per_pe
    )
    # latency ordering follows the startup counts at p = 8
    modeled = {t: runs[t][1].modeled_comm_time(DEFAULT_MACHINE) for t in runs}
    startups = {"direct": NUM_PES - 1, "hypercube": d, "grid": rows - 1 + cols - 1}
    assert startups["hypercube"] < startups["grid"] < startups["direct"]

    num_strings = NUM_STRINGS_PER_PE * NUM_PES
    payload = {
        "benchmark": "routed multi-level all-to-all + LCP loser-tree merge",
        "num_strings_per_pe": NUM_STRINGS_PER_PE,
        "num_pes": NUM_PES,
        "bench_scale": os.environ.get("REPRO_BENCH_SCALE", "1.0"),
        "log2_p": d,
        "grid_dims": [rows, cols],
        "origin_bytes": direct_total,
        "total_bytes": {t: runs[t][1].total_bytes_sent for t in runs},
        "forwarded_bytes": {t: runs[t][1].forwarded_bytes for t in runs},
        "volume_inflation": {
            t: round(runs[t][1].total_bytes_sent / direct_total, 4) for t in runs
        },
        "max_inflation_allowed": {"hypercube": d, "grid": 2.0},
        "startups_per_pe": {t: runs[t][1].messages_per_pe[0] for t in runs},
        "route_bytes": {
            t: dict(runs[t][1].route_bytes) for t in ("hypercube", "grid")
        },
        "modeled_comm_time": {t: modeled[t] for t in runs},
        "wall_seconds": {
            "direct": round(direct_wall, 4),
            "hypercube": round(hyper_wall, 4),
            "grid": round(grid_wall, 4),
        },
        "strings_per_sec": {
            t: round(num_strings / runs[t][2]) for t in runs
        },
    }
    _RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def test_routed_exchange_wall_clock_sane(sorted_blocks):
    """Routing must not wreck simulation throughput (store-and-forward is
    two extra object moves per frame, not a re-encode)."""
    blocks, splitters = sorted_blocks
    _, _, direct_wall = _run(blocks, splitters, "direct")
    _, _, hyper_wall = _run(blocks, splitters, "hypercube")
    assert hyper_wall < 10 * direct_wall + 1.0
