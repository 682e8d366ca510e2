"""The split-phase (asynchronous) exchange: request semantics + determinism.

Two layers are covered here:

* the engine's non-blocking primitives (``isend``/``irecv`` returning
  :class:`repro.mpi.comm.Request` handles, ``waitall``/``waitany``), including
  the MPI non-overtaking rule — receives from one source match messages in
  posting order no matter how their handles are driven;
* the determinism contract of ``async_exchange``: with the split-phase
  exchange on, every paper algorithm must produce **bit-identical**
  sorted outputs, LCP arrays and wire-byte accounting (total, per PE and per
  phase) versus the bulk-synchronous path, on adversarial inputs — tiny
  alphabets, duplicates, empty strings, empty ranks.  Only the overlap
  metrics and the modelled time (via the overlap credit) may differ.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from engine_conformance import PAPER_ALGORITHMS
from repro.dist.exchange import exchange_buckets, exchange_buckets_async
from repro.mpi.comm import waitall, waitany
from repro.mpi.engine import run_spmd
from repro.session import Cluster, MSSpec, default_registry
from repro.strings.generators import dn_instance
from repro.strings.lcp import lcp_array

# ---------------------------------------------------------------------------
# request handles (engine level)
# ---------------------------------------------------------------------------


def test_isend_irecv_roundtrip():
    def program(comm):
        peer = (comm.rank + 1) % comm.size
        source = (comm.rank - 1) % comm.size
        send = comm.isend(f"hello from {comm.rank}", peer)
        recv = comm.irecv(source)
        assert send.wait() is None
        assert send.test()
        got = recv.wait()
        assert recv.done
        return got

    results, report = run_spmd(4, program)
    assert results == [f"hello from {(r - 1) % 4}" for r in range(4)]
    assert all(b > 0 for b in report.bytes_sent_per_pe)


def test_irecv_matches_in_posting_order():
    """Driving the *second* request first must not steal the first message."""

    def program(comm):
        if comm.rank == 0:
            comm.isend("first", 1, tag=7).wait()
            comm.isend("second", 1, tag=7).wait()
            return None
        if comm.rank == 1:
            a = comm.irecv(0, tag=7)
            b = comm.irecv(0, tag=7)
            got_b = b.wait()  # out-of-order drive
            got_a = a.wait()
            return (got_a, got_b)
        return None

    results, _ = run_spmd(2, program)
    assert results[1] == ("first", "second")


def test_waitany_reports_completions_and_waitall_orders_payloads():
    def program(comm):
        if comm.rank == 0:
            requests = [comm.irecv(src) for src in range(1, comm.size)]
            seen = []
            remaining = list(requests)
            while remaining:
                idx = waitany(remaining)
                seen.append(remaining.pop(idx).wait())
            # waitall on completed requests returns payloads in request order
            assert waitall(requests) == [f"r{src}" for src in range(1, comm.size)]
            return sorted(seen)
        comm.isend(f"r{comm.rank}", 0).wait()
        return None

    results, _ = run_spmd(3, program)
    assert results[0] == ["r1", "r2"]


def test_isend_to_self_is_free_and_delivered():
    def program(comm):
        comm.isend("mine", comm.rank).wait()
        return comm.irecv(comm.rank).wait()

    results, report = run_spmd(2, program)
    assert results == ["mine", "mine"]
    assert report.total_bytes_sent == 0  # self-messages cost nothing


def test_blocking_recv_interoperates_with_irecv():
    def program(comm):
        if comm.rank == 0:
            comm.send("a", 1, tag=1)
            comm.send("b", 1, tag=1)
            return None
        first = comm.irecv(0, tag=1)
        second = comm.recv(0, tag=1)  # blocking recv behind an open irecv
        return (first.wait(), second)

    results, _ = run_spmd(2, program)
    assert results[1] == ("a", "b")


# ---------------------------------------------------------------------------
# split-phase exchange (dist level)
# ---------------------------------------------------------------------------


def _cut_buckets(comm, strings):
    """Trivial bucketing for direct exchange tests: round-robin by rank."""
    srt = sorted(strings)
    buckets = []
    for dst in range(comm.size):
        part = [s for i, s in enumerate(srt) if i % comm.size == dst]
        buckets.append((part, lcp_array(part)))
    return buckets


@pytest.mark.parametrize("lcp_compression", [False, True])
def test_async_exchange_matches_sync(lcp_compression):
    corpus = dn_instance(num_strings=200, dn=0.6, length=24, seed=5)

    def program(comm, use_async):
        buckets = _cut_buckets(comm, corpus)
        if use_async:
            received = [None] * comm.size
            for src, strings, lcps in exchange_buckets_async(
                comm, buckets, lcp_compression=lcp_compression
            ):
                received[src] = (strings, lcps)
        else:
            received = exchange_buckets(
                comm, buckets, lcp_compression=lcp_compression
            )
        return received

    sync_results, sync_report = run_spmd(3, program, common_args=(False,))
    async_results, async_report = run_spmd(3, program, common_args=(True,))
    assert async_results == sync_results
    assert async_report.total_bytes_sent == sync_report.total_bytes_sent
    assert async_report.bytes_sent_per_pe == sync_report.bytes_sent_per_pe
    assert dict(async_report.phase_bytes) == dict(sync_report.phase_bytes)
    assert async_report.chars_inspected_per_pe == sync_report.chars_inspected_per_pe
    # only the async path has an overlap window
    assert sync_report.overlap_window_seconds == {}
    assert async_report.overlap_window_seconds.get("exchange", 0.0) > 0.0


def test_async_exchange_carries_payloads():
    def program(comm):
        buckets = [([b"x%d" % dst], [0]) for dst in range(comm.size)]
        received = [None] * comm.size
        for src, strings, lcps, payload in exchange_buckets_async(
            comm, buckets, payloads=[100 + dst for dst in range(comm.size)]
        ):
            received[src] = (strings, lcps, payload)
        return received

    results, _ = run_spmd(2, program)
    for rank, rows in enumerate(results):
        for src, (strings, lcps, payload) in enumerate(rows):
            assert strings == [b"x%d" % rank]
            assert payload == 100 + rank


def test_overlap_credit_reduces_modeled_comm_time():
    corpus = dn_instance(num_strings=400, dn=0.5, length=40, seed=2)
    sync = Cluster(4, async_exchange=False).sort(corpus, MSSpec(seed=1))
    overlapped = Cluster(4, async_exchange=True).sort(corpus, MSSpec(seed=1))
    assert overlapped.overlap_fraction() > 0.0
    assert sync.overlap_fraction() == 0.0
    machine = sync.report  # same byte counts feed both models
    assert overlapped.report.modeled_comm_time() <= machine.modeled_comm_time()


def test_rank_programs_follow_the_cluster_setting():
    def mode(comm):
        return comm.config.async_exchange

    for flag in (False, True):
        results, _ = Cluster(2, async_exchange=flag).engine.run(mode)
        assert results == [flag, flag]


# ---------------------------------------------------------------------------
# determinism across all six algorithms
# ---------------------------------------------------------------------------

# tiny alphabet -> many shared prefixes and exact duplicates; empty strings
# and more PEs than strings are reachable through the size bounds
adversarial_strings = st.lists(
    st.binary(max_size=10).map(lambda b: bytes(97 + (c % 3) for c in b)),
    max_size=60,
)

_SETTINGS = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _run_both(strings, algorithm, p, seed=3):
    spec = default_registry().spec_class(algorithm)(seed=seed)
    with Cluster(p, async_exchange=False) as cluster:
        sync = cluster.sort(strings, spec)
    with Cluster(p, async_exchange=True) as cluster:
        overlapped = cluster.sort(strings, spec)
    assert overlapped.sorted_strings == sync.sorted_strings
    assert overlapped.outputs_per_pe == sync.outputs_per_pe
    assert overlapped.lcps_per_pe == sync.lcps_per_pe
    assert overlapped.origins_per_pe == sync.origins_per_pe
    assert overlapped.report.total_bytes_sent == sync.report.total_bytes_sent
    assert overlapped.report.bytes_sent_per_pe == sync.report.bytes_sent_per_pe
    assert dict(overlapped.report.phase_bytes) == dict(sync.report.phase_bytes)
    assert (
        overlapped.report.chars_inspected_per_pe
        == sync.report.chars_inspected_per_pe
    )


@settings(**_SETTINGS)
@given(
    strings=adversarial_strings,
    algorithm=st.sampled_from(sorted(PAPER_ALGORITHMS)),
    p=st.integers(min_value=1, max_value=4),
)
def test_async_exchange_is_deterministic(strings, algorithm, p):
    _run_both(strings, algorithm, p)


@pytest.mark.parametrize("algorithm", sorted(PAPER_ALGORITHMS))
def test_async_exchange_deterministic_fixed_corpus(algorithm):
    """Non-random twin of the hypothesis test on a skew-heavy instance."""
    corpus = dn_instance(num_strings=300, dn=0.8, length=32, seed=17)
    corpus += [b"", b"a" * 31, corpus[0], corpus[0]]  # empties + duplicates
    _run_both(corpus, algorithm, 4, seed=9)
