"""PDMS's packed tail against the list-and-heap tail it replaced.

``merge_sort`` with prefix doubling (PDMS) keeps its locally sorted run
packed, derives the prefix LCP array by clipping the local LCPs, and merges
the received prefix runs with one stable key sort whose order yields the
origin labels.  The reference here is the original tail, rebuilt
test-locally from the same library steps: list prefixes and ``lcp_array``,
a ``heapq.merge`` over ``(prefix, (source PE, first + i))`` and
``lcp_array`` of the output.
Outputs, LCP arrays, origins, extras, wire bytes and characters inspected
must agree exactly — duplicates spanning PEs pin the tie order.
"""

import hashlib
import heapq
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dist.exchange import exchange_buckets
from repro.dist.local_sort import local_sort
from repro.dist.partition import split_into_buckets
from repro.dist.prefix_doubling import approximate_dist_prefixes
from repro.dist.splitters import determine_splitters
from repro.mpi import run_spmd
from repro.session import Cluster, PDMSGolombSpec, PDMSSpec
from repro.strings.generators import dna_reads
from repro.strings.lcp import lcp_array

from inputs import duplicate_heavy


def reference_pdms(comm, strings, spec, golomb):
    """The list-based PDMS rank program, merge by ``heapq``."""
    local_sorted, _ = local_sort(comm, strings)
    local_sorted = list(local_sorted)
    doubling = approximate_dist_prefixes(
        comm, local_sorted, initial_length=spec.initial_length,
        epsilon=spec.epsilon, golomb=golomb,
    )
    prefixes = [s[:n] for s, n in zip(local_sorted, doubling.lengths)]
    splitters = determine_splitters(
        comm, prefixes, scheme=spec.sampling, sample_sort=spec.sample_sort,
        oversampling=spec.oversampling,
        weights=doubling.lengths if spec.sampling == "character" else None,
    )
    buckets = split_into_buckets(prefixes, lcp_array(prefixes), splitters)
    starts = [sum(len(b) for b, _ in buckets[:d]) for d in range(len(buckets))]
    received = exchange_buckets(comm, buckets, lcp_compression=True, payloads=starts)
    with comm.phase("merge"):
        decorated = [
            [(s, (src, first + i)) for i, s in enumerate(run)]
            for src, (run, _, first) in enumerate(received)
        ]
        merged = list(heapq.merge(*decorated, key=lambda item: item[0]))
        out = [s for s, _ in merged]
        comm.record_local_work(sum(len(s) for s in out), len(out))
    extra = {
        "doubling_rounds": doubling.rounds,
        "approx_dist_total": comm.allreduce(sum(doubling.lengths)),
        "fingerprints_sent": comm.allreduce(doubling.fingerprints_sent),
    }
    return out, lcp_array(out), [origin for _, origin in merged], extra


def _assert_matches_reference(blocks, spec):
    with Cluster(len(blocks)) as cluster:
        got = cluster.sort(blocks, spec, pre_distributed=True, check=True)
    results, report = run_spmd(
        len(blocks), reference_pdms,
        args_per_rank=[(b,) for b in blocks],
        common_args=(spec, isinstance(spec, PDMSGolombSpec)),
    )
    assert got.outputs_per_pe == [r[0] for r in results]
    assert got.lcps_per_pe == [r[1] for r in results]
    assert got.origins_per_pe == [r[2] for r in results]
    assert got.extra == results[0][3]
    assert got.report.total_bytes_sent == report.total_bytes_sent
    assert got.report.chars_inspected_per_pe == report.chars_inspected_per_pe


# a tiny alphabet with a NUL byte: long shared prefixes, exact duplicates,
# empty strings and the NUL fallback of the key sort
_strings = st.lists(st.sampled_from(b"\x00ab"), max_size=7).map(bytes)


@st.composite
def pe_blocks(draw):
    pool = draw(st.lists(_strings, min_size=1, max_size=6))
    item = st.one_of(st.sampled_from(pool), _strings)
    return draw(st.lists(st.lists(item, max_size=14), min_size=1, max_size=5))


@given(pe_blocks(), st.sampled_from([PDMSSpec, PDMSGolombSpec]), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_packed_tail_matches_heap_merge_reference(blocks, spec_class, initial_length):
    _assert_matches_reference(blocks, spec_class(initial_length=initial_length))


def test_empty_ranks_and_duplicates_across_pes():
    blocks = [[], [b"ab", b"a", b"ab", b""], [], [b"ab", b"\x00", b"a"], [b"ab"]]
    for spec in (PDMSSpec(initial_length=1), PDMSGolombSpec(sampling="character")):
        _assert_matches_reference(blocks, spec)


def test_long_duplicates_among_short_strings():
    # NUL-free but skewed: PDMS keeps duplicates whole, so the merged prefixes
    # hold long strings among short ones, which sort_with_order orders by
    # sorted() rather than by a key matrix
    rng = random.Random(3)
    short = [bytes(rng.choices(b"ab", k=rng.randrange(1, 9))) for _ in range(300)]
    blocks = [short[i::3] + [b"ab" * 1500] * 2 for i in range(3)]
    for spec in (PDMSSpec(), PDMSGolombSpec()):
        _assert_matches_reference(blocks, spec)


def _digest(res):
    rows = [
        (out, [int(h) for h in lcps], [(int(s), int(p)) for s, p in origins])
        for out, lcps, origins in zip(res.outputs_per_pe, res.lcps_per_pe, res.origins_per_pe)
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


# recorded from the list-and-heap tail: (input, spec) -> (outputs/LCPs/origins
# digest, total bytes sent, characters inspected per PE), p = 4; only the
# byte totals depend on the fingerprint hash, and they were re-recorded when
# each PE began sending each fingerprint value once
PINNED_INPUTS = {
    "dna": lambda: dna_reads(600, seed=17),
    "duplicates": lambda: duplicate_heavy(600, 20, 8, seed=17),
}
PINNED = {
    ("dna", "PDMSSpec"): ("f4d0e4a9ea8f9cc4", 20853, [42474, 39968, 45569, 45489]),
    ("dna", "PDMSGolombSpec"): ("f4d0e4a9ea8f9cc4", 20667, [42474, 39968, 45569, 45489]),
    ("duplicates", "PDMSSpec"): ("31e79eaec7dddff6", 2279, [5280, 4464, 4624, 4832]),
    ("duplicates", "PDMSGolombSpec"): ("31e79eaec7dddff6", 2279, [5280, 4464, 4624, 4832]),
}


@pytest.mark.parametrize("spec_class", [PDMSSpec, PDMSGolombSpec])
@pytest.mark.parametrize("name", sorted(PINNED_INPUTS))
def test_pinned_runs_on_both_engines(engine, name, spec_class):
    with Cluster(4) as cluster:
        res = cluster.sort(PINNED_INPUTS[name](), spec_class(), check=True)
    assert (
        _digest(res), res.report.total_bytes_sent, list(res.report.chars_inspected_per_pe)
    ) == PINNED[name, spec_class.__name__]
