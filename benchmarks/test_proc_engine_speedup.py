"""Real parallelism of the multiprocessing engine — perf-smoke gate (PR 8).

The thread engine time-slices every PE through one GIL, so a p-PE job runs
its CPU-bound local phases (radix sort, LCP computation, merge) serially
no matter how many cores the machine has.  The ``processes`` engine exists
to remove exactly that ceiling: the same rank programs as real OS
processes, buckets crossing address spaces through shared memory.  This
module measures the end-to-end payoff on the packed (default) distributed
pipeline at p=4 and gates on it.

The gate — **>= 2x end-to-end speedup over the thread engine at p=4** — is
enforced only when the machine actually has >= 4 CPUs; on smaller boxes
(CI containers are often single-core, where real processes can only add
fork/IPC overhead) the measurement is recorded as trajectory data and the
gate is waived.  Bit-identical outputs, LCP arrays and simulated wire
volume across the two engines are asserted unconditionally — the speedup
must never come at the price of the conformance contract.

Results land in ``benchmarks/out/BENCH_PR8.json`` (with ``cpu_count`` and
``gate_enforced`` so archived numbers are interpretable); the CI
perf-smoke job runs this module and archives the JSON next to the PR 7
trajectory.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from conftest import results_path, scaled
from repro.bench.harness import peak_rss_bytes
from repro.mpi.procengine import process_engine_available
from repro.session import Cluster
from repro.strings.generators import dn_instance

_RESULTS_PATH = results_path("BENCH_PR8.json")

NUM_PES = 4
SPEEDUP_GATE = 2.0
ATTEMPTS = 3

pytestmark = pytest.mark.skipif(
    not process_engine_available()[0],
    reason=process_engine_available()[1],
)


@pytest.fixture(scope="module")
def workload():
    """A D/N=0.6 instance big enough that local phases dominate wall clock."""
    return dn_instance(scaled(6000, minimum=800), 0.6, length=64, seed=41)


def _timed_sort(engine_name, data):
    with Cluster(num_pes=NUM_PES, engine=engine_name, timeout=120.0) as cluster:
        start = time.perf_counter()
        result = cluster.sort(data, "ms")
        elapsed = time.perf_counter() - start
    return elapsed, result


def test_processes_engine_speedup_at_p4(workload):
    cpu_count = os.cpu_count() or 1
    gate_enforced = cpu_count >= NUM_PES

    best_threads = None
    best_processes = None
    reference = None
    for _ in range(ATTEMPTS):
        t_threads, threaded = _timed_sort("threads", workload)
        t_processes, processed = _timed_sort("processes", workload)

        # conformance is unconditional: the engines must agree bit for bit
        # on every attempt, fast or slow
        assert processed.outputs_per_pe == threaded.outputs_per_pe
        assert processed.lcps_per_pe == threaded.lcps_per_pe
        assert (
            processed.report.total_bytes_sent == threaded.report.total_bytes_sent
        )
        assert (
            processed.report.bytes_sent_per_pe
            == threaded.report.bytes_sent_per_pe
        )
        assert processed.report.transported_bytes > 0
        assert threaded.report.transported_bytes == 0

        best_threads = min(t_threads, best_threads or t_threads)
        best_processes = min(t_processes, best_processes or t_processes)
        reference = (threaded, processed)
        if gate_enforced and best_threads / best_processes >= SPEEDUP_GATE * 1.25:
            break  # comfortably past the gate; save CI minutes

    threaded, processed = reference
    speedup = best_threads / best_processes

    payload = {
        "benchmark": "processes vs threads engine, packed pipeline, p=4",
        "algorithm": "ms",
        "num_pes": NUM_PES,
        "num_strings": len(workload),
        "bench_scale": os.environ.get("REPRO_BENCH_SCALE", "1.0"),
        "cpu_count": cpu_count,
        "gate": SPEEDUP_GATE,
        "gate_enforced": gate_enforced,
        "threads_seconds": round(best_threads, 6),
        "processes_seconds": round(best_processes, 6),
        "speedup": round(speedup, 4),
        "simulated_bytes": threaded.report.total_bytes_sent,
        "transported_bytes": processed.report.transported_bytes,
        "peak_rss_bytes": peak_rss_bytes(),
    }
    _RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    if gate_enforced:
        assert speedup >= SPEEDUP_GATE, (
            f"processes engine achieved only {speedup:.2f}x over threads at "
            f"p={NUM_PES} on {cpu_count} CPUs (gate {SPEEDUP_GATE}x); "
            f"threads={best_threads:.3f}s processes={best_processes:.3f}s"
        )


def test_bench_json_is_readable():
    """The archived JSON parses and carries the interpretability fields."""
    if not _RESULTS_PATH.exists():
        pytest.skip("speedup benchmark has not run yet")
    payload = json.loads(_RESULTS_PATH.read_text())
    for key in ("cpu_count", "gate_enforced", "speedup", "transported_bytes"):
        assert key in payload
