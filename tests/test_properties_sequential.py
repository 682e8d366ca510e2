"""Property-based tests (hypothesis) for the sequential sorting layer.

Invariants covered:

* every scalar sorter (the oracles of the local sort) returns a sorted
  permutation of its input with the exact LCP array, for arbitrary byte
  strings;
* the LCP loser tree agrees with sorted() on arbitrary partitions of the
  input into runs;
* the packed merge is the scalar LCP loser tree, bit for bit: strings, LCPs
  and the character/comparison counters, on adversarial run shapes;
* on runs of 1024 strings or more behind a shared prefix, where the packed
  merge may take the word radix, its strings and LCPs are still the scalar
  tree's and ``sorted()``'s;
* the flat atomic merge is the scalar ``LoserTree``, bit for bit, on list and
  packed runs, and MS-simple/FKmerge still count what the parent counted;
* LCP arrays and distinguishing prefixes satisfy their defining relations;
* the Golomb coder round-trips arbitrary sorted integer sequences, and a
  coded set's closed-form wire size is exactly the coder's payload plus its
  framing (the set lives in the dist package but is a pure sequential data
  structure; the coder is a test oracle).
"""

import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import Cluster, FKMergeSpec, MSSimpleSpec
from repro.dist.golomb import GolombCodedSet, coded_sizes, golomb_parameter
from repro.mpi.serialization import varint_size
from repro.sequential import CharStats, multiway_merge
import repro.sequential.lcp_losertree as losertree
from repro.sequential.lcp_losertree import lcp_multiway_merge_packed
from repro.strings.generators import commoncrawl_like
from repro.strings.lcp import distinguishing_prefix_size, lcp_array
from repro.strings.packed import PackedStringArray

from oracles.golomb import decode_sorted, encode_sorted
from oracles.lcp import distinguishing_prefixes, lcp
from oracles.lcp_insertion import lcp_insertion_sort
from oracles.lcp_mergesort import lcp_merge
from oracles.losertree import LoserTree, lcp_multiway_merge
from oracles.msd_radix import msd_radix_sort
from oracles.multikey_quicksort import multikey_quicksort

# byte strings over a tiny alphabet maximise shared prefixes and duplicates,
# which is where the LCP machinery can go wrong
small_alphabet_text = st.binary(max_size=12).map(
    lambda b: bytes(97 + (c % 3) for c in b)
)
string_lists = st.lists(small_alphabet_text, max_size=60)
wild_string_lists = st.lists(st.binary(max_size=20), max_size=40)


@settings(max_examples=150, deadline=None)
@given(string_lists)
def test_msd_radix_matches_builtin_sort(strings):
    out, lcps = msd_radix_sort(strings)
    assert out == sorted(strings)
    assert lcps == lcp_array(out)


@settings(max_examples=150, deadline=None)
@given(wild_string_lists)
def test_msd_radix_on_arbitrary_bytes(strings):
    out, lcps = msd_radix_sort(strings)
    assert out == sorted(strings)
    assert lcps == lcp_array(out)


@settings(max_examples=150, deadline=None)
@given(string_lists)
def test_multikey_quicksort_matches_builtin_sort(strings):
    out, lcps = multikey_quicksort(strings)
    assert out == sorted(strings)
    assert lcps == lcp_array(out)


@settings(max_examples=100, deadline=None)
@given(st.lists(small_alphabet_text, max_size=25))
def test_lcp_insertion_sort_matches_builtin_sort(strings):
    out, lcps = lcp_insertion_sort(strings)
    assert out == sorted(strings)
    assert lcps == lcp_array(out)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(small_alphabet_text, max_size=15), min_size=1, max_size=6))
def test_lcp_losertree_merges_arbitrary_runs(runs):
    runs = [sorted(r) for r in runs]
    lcps = [lcp_array(r) for r in runs]
    merged, out_lcps = lcp_multiway_merge(runs, lcps)
    expected = sorted(s for r in runs for s in r)
    assert merged == expected
    assert out_lcps == lcp_array(expected)


# NUL bytes, empty strings, heavy duplicates (three letters, short strings)
# and prefix chains (every prefix of one word), all of which land in
# different runs
merge_text = st.one_of(
    st.binary(max_size=6).map(lambda b: bytes(b"\x00ab"[c % 3] for c in b)),
    st.integers(min_value=0, max_value=12).map(lambda n: (b"ab\x00" * 4)[:n]),
)


@settings(max_examples=300, deadline=None)
@given(
    runs=st.lists(st.lists(merge_text, max_size=12), min_size=1, max_size=9),
    lead=st.lists(merge_text, max_size=2),
    junk=st.integers(min_value=0, max_value=9),
    data=st.data(),
)
def test_packed_merge_is_the_scalar_lcp_losertree(runs, lead, junk, data):
    runs = [sorted(r) for r in runs]
    # every run is a window into a larger array: offsets[0] != 0 when the
    # lead holds characters; the ignored first LCP entry holds junk
    packed = [
        PackedStringArray.from_strings(lead + r + lead)[len(lead) : len(lead) + len(r)]
        for r in runs
    ]
    lcps = [np.array(lcp_array(r), dtype=np.int64) for r in runs]
    for h in lcps:
        h[:1] = junk
    before = [(p.buffer.copy(), p.offsets.copy(), h.copy()) for p, h in zip(packed, lcps)]

    want_stats, got_stats = CharStats(), CharStats()
    want, want_lcps = lcp_multiway_merge(runs, [h.tolist() for h in lcps], want_stats)
    got, got_lcps = lcp_multiway_merge_packed(packed, lcps, got_stats)

    assert got.to_list() == want
    assert got_lcps.dtype == np.int64 and got_lcps.tolist() == want_lcps
    assert got_stats == want_stats
    for (buf, off, h0), p, h in zip(before, packed, lcps):
        assert (p.buffer == buf).all() and (p.offsets == off).all() and (h == h0).all()

    bad = data.draw(st.integers(min_value=0, max_value=len(runs) - 1))
    lcps[bad] = np.append(lcps[bad], 0)
    with pytest.raises(ValueError):
        lcp_multiway_merge_packed(packed, lcps)


@st.composite
def shared_prefix_runs(draw):
    """Sorted runs of 1024 strings or more behind an 8-, 11- or 16-byte
    prefix, and the runs' LCP arrays; runs are empty, hold one string or
    share the rest.  Tails of up to ``width`` bytes of ``{NUL, a, b}`` end on
    and off word boundaries, repeat across runs, and may be empty (a string
    the prefix long).  At least two runs share the strings.  A stray string
    may break the prefix: one of its own prefixes, or a string parting from
    it at byte ``cut``, in a shared run or a run of its own, so some draws
    share less than a word and merge on the tree."""
    size = draw(st.sampled_from([8, 11, 16]))
    prefix = draw(st.binary(min_size=size, max_size=size))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    width = draw(st.integers(min_value=0, max_value=20))
    pool = [prefix] + [
        prefix + bytes(rng.choice(b"\x00ab") for _ in range(rng.randint(0, width)))
        for _ in range(draw(st.integers(min_value=1023, max_value=1200)))
    ]
    kinds = draw(st.lists(st.sampled_from(["empty", "one", "shared"]), max_size=7))
    for _ in range(2):
        kinds.insert(draw(st.integers(min_value=0, max_value=len(kinds))), "shared")
    runs = [[] for _ in kinds]
    shared = [r for r, kind in enumerate(kinds) if kind == "shared"]
    for r, kind in enumerate(kinds):
        if kind == "one":
            runs[r].append(pool.pop(rng.randrange(len(pool))))
    for s in pool:
        runs[rng.choice(shared)].append(s)
    stray = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from(["prefix", "part", "alone"]),
                st.integers(min_value=0, max_value=len(prefix) - 1),
            ),
        )
    )
    if stray is not None:
        kind, cut = stray
        if kind == "prefix":
            runs[rng.choice(shared)].append(prefix[:cut])
        else:
            parted = prefix[:cut] + bytes([prefix[cut] ^ 0x80]) + prefix[cut + 1 :]
            if kind == "part":
                runs[rng.choice(shared)].append(parted)
            else:
                runs.append([parted])
    runs = [sorted(r) for r in runs]
    return runs, [np.array(lcp_array(r), dtype=np.int64) for r in runs]


def test_packed_merge_radix_is_the_scalar_lcp_losertree(monkeypatch):
    kernels = set()
    radix = losertree._word_radix
    took_radix = []

    def counting(arr, depth):
        took_radix.append(depth)
        return radix(arr, depth)

    monkeypatch.setattr(losertree, "_word_radix", counting)

    @settings(max_examples=120, deadline=None)
    @given(
        case=shared_prefix_runs(),
        lead=st.lists(merge_text, max_size=2),
        junk=st.integers(min_value=0, max_value=40),
    )
    def check(case, lead, junk):
        runs, lcps = case
        # windows into larger arrays, the ignored first LCP entry junk
        packed = [
            PackedStringArray.from_strings(lead + r + lead)[len(lead) : len(lead) + len(r)]
            for r in runs
        ]
        for h in lcps:
            h[:1] = junk
        before = [(p.buffer.copy(), p.offsets.copy(), h.copy()) for p, h in zip(packed, lcps)]

        took_radix.clear()
        got, got_lcps = lcp_multiway_merge_packed(packed, lcps, CharStats())
        want, want_lcps = lcp_multiway_merge(runs, [h.tolist() for h in lcps])

        assert got.to_list() == want == sorted(s for r in runs for s in r)
        assert got_lcps.dtype == np.int64 and got_lcps.tolist() == want_lcps
        for (buf, off, h0), p, h in zip(before, packed, lcps):
            assert (p.buffer == buf).all() and (p.offsets == off).all() and (h == h0).all()
        if sum(len(r) > 0 for r in runs) > 1:
            kernels.add("radix" if took_radix else "tree")

    check()
    assert kernels == {"radix", "tree"}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(small_alphabet_text, max_size=15), min_size=1, max_size=6))
def test_atomic_losertree_merges_arbitrary_runs(runs):
    runs = [sorted(r) for r in runs]
    merged = multiway_merge(runs)
    assert merged == sorted(s for r in runs for s in r)


# as merge_text, with 0xFF as the largest byte
atomic_text = st.one_of(
    st.binary(max_size=6).map(lambda b: bytes(b"\x00a\xff"[c % 3] for c in b)),
    st.integers(min_value=0, max_value=12).map(lambda n: (b"a\xff\x00" * 4)[:n]),
)


@settings(max_examples=300, deadline=None)
@given(
    runs=st.lists(st.lists(atomic_text, max_size=12), max_size=9),
    lead=st.lists(atomic_text, max_size=2),
    packed=st.lists(st.booleans(), min_size=9, max_size=9),
)
def test_flat_merge_is_the_scalar_atomic_losertree(runs, lead, packed):
    runs = [sorted(r) for r in runs]
    # some runs arrive packed, as windows into a larger array
    given_runs = [
        PackedStringArray.from_strings(lead + r + lead)[len(lead) : len(lead) + len(r)]
        if as_packed
        else list(r)
        for r, as_packed in zip(runs, packed)
    ]
    before = [list(r) for r in given_runs]

    want_stats, got_stats = CharStats(), CharStats()
    tree = LoserTree(runs, want_stats)
    want = [tree.pop() for _ in range(sum(map(len, runs)))]
    assert tree.empty()
    got = multiway_merge(given_runs, got_stats)

    assert got == want
    assert got_stats == want_stats
    assert multiway_merge(given_runs) == want
    assert [list(r) for r in given_runs] == before


class _FromRun(bytes):
    """A string that remembers which run it came from."""

    run = -1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(atomic_text, max_size=8), max_size=9))
def test_flat_merge_emits_equal_strings_in_run_order(runs):
    tagged = [[_FromRun(s) for s in sorted(r)] for r in runs]
    for index, run in enumerate(tagged):
        for s in run:
            s.run = index
    got = multiway_merge(tagged)
    assert [(s, s.run) for s in got] == sorted((s, s.run) for run in tagged for s in run)


@pytest.mark.parametrize(
    "spec, total_bytes_sent",
    [(MSSimpleSpec(exchange_topology="hypercube"), 61894), (FKMergeSpec(), 47355)],
    ids=["ms-simple", "fkmerge"],
)
def test_no_lcp_baselines_count_the_radix_bytes_read(engine, spec, total_bytes_sent):
    """Counters of a fixed run: each PE's local sort plus the bytes of every
    word the merge's word radix reads.  Recorded when the merge moved off the
    atomic loser tree, which read ``[44407, 45178, 37352, 34579]``; the wire
    bytes did not move."""
    data = commoncrawl_like(1500, seed=20)
    res = Cluster(num_pes=4, engine=engine).sort(data, spec)
    assert res.sorted_strings == sorted(data)
    assert res.report.chars_inspected_per_pe == [41028, 40078, 35767, 34981]
    assert res.report.total_bytes_sent == total_bytes_sent


@settings(max_examples=100, deadline=None)
@given(
    st.lists(small_alphabet_text, max_size=30),
    st.lists(small_alphabet_text, max_size=30),
)
def test_binary_lcp_merge(a, b):
    a, b = sorted(a), sorted(b)
    merged, lcps = lcp_merge(a, lcp_array(a), b, lcp_array(b))
    expected = sorted(a + b)
    assert merged == expected
    assert lcps == lcp_array(expected)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=30), st.binary(max_size=30))
def test_lcp_definition(a, b):
    h = lcp(a, b)
    assert a[:h] == b[:h]
    if h < min(len(a), len(b)):
        assert a[h] != b[h]


@settings(max_examples=100, deadline=None)
@given(st.lists(small_alphabet_text, min_size=1, max_size=30))
def test_distinguishing_prefix_definition(strings):
    dist = distinguishing_prefixes(strings)
    assert distinguishing_prefix_size(strings) == sum(dist)
    for i, s in enumerate(strings):
        assert 0 <= dist[i] <= len(s)
        others = strings[:i] + strings[i + 1 :]
        if others and s:
            max_lcp = max(lcp(s, t) for t in others)
            # DIST = max LCP + 1, capped at |s|
            assert dist[i] == min(max_lcp + 1, len(s))


@st.composite
def sorted_values_in_a_universe(draw):
    """``(values, universe)`` over the universes the fingerprints really use,
    from a dense 7 to the full 64 bits (values and gaps beyond ``int64``)."""
    universe = draw(st.sampled_from([7, 2**16, 2**32, 2**38, 2**62, 2**64]))
    values = draw(st.lists(st.integers(min_value=0, max_value=universe - 1), max_size=200))
    return sorted(values), universe


@settings(max_examples=300, deadline=None)
@given(sorted_values_in_a_universe())
def test_golomb_roundtrip(case):
    values, universe = case
    payload, m = encode_sorted(values, universe=universe)
    assert decode_sorted(payload, m, len(values)) == values


@st.composite
def sorted_multiset_in_a_universe(draw):
    """``(values, universe)``: a sorted multiset with repeats drawn from its
    own members, over universes from a single value to the full 64 bits."""
    universe = draw(st.sampled_from([1, 7, 2**16, 2**40, 2**64]))
    values = draw(st.lists(st.integers(min_value=0, max_value=universe - 1), max_size=200))
    repeats = draw(st.lists(st.sampled_from(values), max_size=50)) if values else []
    return sorted(values + repeats), universe


@settings(max_examples=300, deadline=None)
@given(st.lists(sorted_multiset_in_a_universe(), min_size=1, max_size=4))
def test_golomb_closed_form_size_is_the_encoded_payload(cases):
    """Each coded set's counted size is the encoder's bytes plus the framing,
    the decoder recovers the set's values, and one pass over the sets laid
    end to end counts the same sizes."""
    sizes = []
    for values, universe in cases:
        coded = GolombCodedSet(np.array(values, dtype=np.uint64), universe)
        payload, m = encode_sorted(values, universe=universe)
        assert coded.m == m
        size = len(payload) + varint_size(m) + varint_size(len(values))
        assert coded_sizes(coded.values, [len(values)], [coded.m]) == [size]
        assert decode_sorted(payload, m, len(values)) == coded.values.tolist()
        sizes.append(size)
    joined = np.array([v for values, _ in cases for v in values], dtype=np.uint64)
    counts = [len(values) for values, _ in cases]
    ms = [golomb_parameter(universe, len(values)) for values, universe in cases]
    assert coded_sizes(joined, counts, ms) == sizes


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2**16 - 1), min_size=1, max_size=300),
    st.integers(min_value=17, max_value=40),
)
def test_golomb_compresses_dense_sets(values, bits):
    """Dense sorted sets must encode to fewer bytes than fixed-width storage."""
    values = sorted(values)
    payload, _ = encode_sorted(values, universe=1 << bits)
    fixed = len(values) * ((bits + 7) // 8)
    # allow slack for tiny inputs where headers dominate
    assert len(payload) <= fixed + 8
