"""Tests for sampling, splitter selection and bucket computation (Section V-A)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dist.api import distribute_strings
from repro.dist.partition import (
    character_based_samples,
    select_splitters,
    split_into_buckets,
    string_based_samples,
)
from repro.strings.generators import dn_instance, random_strings, skewed_dn_instance
from repro.strings.lcp import lcp_array
from repro.strings.packed import PackedStringArray, packed_bucket_boundaries

from oracles import partition as oracle


def bucket_boundaries(sorted_strings, splitters):
    """The splitter partition of a list, through the packed kernel."""
    return packed_bucket_boundaries(PackedStringArray.from_strings(sorted_strings), splitters)


class TestStringBasedSamples:
    def test_number_of_samples(self):
        data = sorted(random_strings(100, 1, 5, seed=1))
        assert len(string_based_samples(data, 7)) == 7

    def test_samples_are_sorted_and_members(self):
        data = sorted(random_strings(200, 1, 5, seed=2))
        samples = string_based_samples(data, 10)
        assert samples == sorted(samples)
        assert all(s in data for s in samples)

    def test_evenly_spaced(self):
        data = [bytes([97 + i // 10, 97 + i % 10]) for i in range(100)]
        samples = string_based_samples(data, 4)
        # omega = 20: indices ~ 19, 39, 59, 79
        assert samples == [data[19], data[39], data[59], data[79]]

    def test_degenerate_inputs(self):
        assert string_based_samples([], 5) == []
        assert string_based_samples([b"x"], 0) == []
        assert string_based_samples([b"x"], 3) == [b"x"] * 3


class TestCharacterBasedSamples:
    def test_number_of_samples(self):
        data = sorted(random_strings(100, 1, 20, seed=3))
        assert len(character_based_samples(data, 6)) == 6

    def test_long_strings_attract_samples(self):
        # one huge string among tiny ones: character-based sampling must pick
        # strings near it, string-based sampling spreads uniformly
        data = [b"a" * 2] * 50 + [b"b" * 5000] + [b"c" * 2] * 50
        samples = character_based_samples(data, 5)
        assert b"b" * 5000 in samples

    def test_custom_weights(self):
        data = [b"aa", b"bb", b"cc", b"dd"]
        # all weight on the last string
        samples = character_based_samples(data, 3, weights=[0, 0, 0, 100])
        assert samples == [b"dd"] * 3

    def test_zero_weights_fall_back_to_string_sampling(self):
        data = [b"aa", b"bb", b"cc"]
        assert character_based_samples(data, 2, weights=[0, 0, 0]) == string_based_samples(data, 2)

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            character_based_samples([b"a"], 2, weights=[1, 2])


class TestSelectSplitters:
    def test_count_and_membership(self):
        sample = sorted(random_strings(60, 1, 4, seed=4))
        splitters = select_splitters(sample, 5)
        assert len(splitters) == 4
        assert splitters == sorted(splitters)
        assert all(s in sample for s in splitters)

    def test_single_part_needs_no_splitters(self):
        assert select_splitters([b"a", b"b"], 1) == []

    def test_empty_sample(self):
        assert select_splitters([], 4) == []


class TestBucketBoundaries:
    def test_semantics_of_boundaries(self):
        data = sorted([b"a", b"b", b"c", b"d", b"e", b"f"])
        splitters = [b"b", b"d"]
        bounds = bucket_boundaries(data, splitters)
        assert bounds == [0, 2, 4, 6]
        # bucket j = (f_{j-1}, f_j]
        assert data[bounds[0]:bounds[1]] == [b"a", b"b"]
        assert data[bounds[1]:bounds[2]] == [b"c", b"d"]
        assert data[bounds[2]:bounds[3]] == [b"e", b"f"]

    def test_duplicates_go_to_lower_bucket(self):
        data = [b"m"] * 10
        bounds = bucket_boundaries(data, [b"m"])
        assert bounds == [0, 10, 10]

    def test_splitter_smaller_than_everything(self):
        data = [b"x", b"y"]
        assert bucket_boundaries(data, [b"a"]) == [0, 0, 2]

    def test_unsorted_splitters_rejected(self):
        with pytest.raises(ValueError):
            bucket_boundaries([b"a", b"b"], [b"z", b"a"])


class TestSplitIntoBuckets:
    def test_buckets_cover_input_and_keep_lcps(self):
        data = sorted(dn_instance(120, 0.4, length=30, seed=5))
        lcps = lcp_array(data)
        splitters = select_splitters(string_based_samples(data, 12), 4)
        buckets = split_into_buckets(data, lcps, splitters)
        assert len(buckets) == 4
        assert [s for strs, _ in buckets for s in strs] == data
        for strs, blcps in buckets:
            assert len(strs) == len(blcps)
            if len(blcps):
                assert blcps[0] == 0
                assert blcps.tolist() == lcp_array(strs)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            split_into_buckets([b"a"], [0, 0], [])


class TestTheoremBounds:
    """Theorems 2 and 3: regular sampling bounds the bucket sizes."""

    def test_theorem2_string_bound_holds(self):
        # simulate p local arrays, sample each, merge samples, check buckets
        p, v = 4, 8
        blocks = [sorted(random_strings(250, 1, 12, seed=10 + i)) for i in range(p)]
        sample = sorted(
            s for blk in blocks for s in string_based_samples(blk, v)
        )
        splitters = select_splitters(sample, p)
        n = sum(len(b) for b in blocks)
        bound = n / p + n / v
        for j in range(p):
            bucket_size = 0
            for blk in blocks:
                bounds = bucket_boundaries(blk, splitters)
                bucket_size += bounds[j + 1] - bounds[j]
            assert bucket_size <= bound + p  # +p slack for rounding of sample indices

    def test_theorem3_character_bound_holds(self):
        p, v = 4, 8
        blocks = [
            sorted(skewed_dn_instance(200, 0.5, length=40, seed=20 + i))
            for i in range(p)
        ]
        sample = sorted(
            s for blk in blocks for s in character_based_samples(blk, v)
        )
        splitters = select_splitters(sample, p)
        total_chars = sum(len(s) for blk in blocks for s in blk)
        max_len = max(len(s) for blk in blocks for s in blk)
        # N/p + N/v + p·l_hat: each sample position is quantised to a string
        bound = total_chars / p + total_chars / v + p * max_len
        for j in range(p):
            bucket_chars = 0
            for blk in blocks:
                bounds = bucket_boundaries(blk, splitters)
                bucket_chars += sum(len(s) for s in blk[bounds[j] : bounds[j + 1]])
            assert bucket_chars <= bound + p * max_len  # rounding slack


# ---------------------------------------------------------------------------
# the vectorised bodies against the scalar loops they replaced
# ---------------------------------------------------------------------------

_inputs = st.one_of(
    st.lists(st.binary(max_size=6), max_size=40),
    # few distinct strings: duplicates, shared prefixes, NUL bytes
    st.lists(st.sampled_from([b"", b"a", b"ab", b"abc", b"b", b"ba", b"\x00", b"a\x00"]), max_size=40),
    st.lists(st.just(b""), max_size=12),
)


@given(strings=_inputs, p=st.integers(1, 12), v=st.integers(0, 9), data=st.data())
@settings(max_examples=200, deadline=None)
def test_vectorised_partition_matches_scalar_oracles(strings, p, v, data):
    """``distribute_strings``, ``character_based_samples`` and
    ``split_into_buckets`` equal the scalar loops on list and packed input,
    with all-empty strings and more PEs than strings among the draws."""
    packed = PackedStringArray.from_strings(strings)
    for by in ("strings", "chars"):
        expected = oracle.distribute(strings, p, by)
        assert distribute_strings(strings, p, by) == expected
        assert [b.to_list() for b in distribute_strings(packed, p, by)] == expected

    srt = sorted(strings)
    arr = PackedStringArray.from_strings(srt)
    weights = data.draw(st.lists(st.integers(0, 9), min_size=len(srt), max_size=len(srt)))
    k = data.draw(st.integers(0, 4))
    pool = srt + [b"", b"a", b"m", b"zzz"]
    splitters = sorted(data.draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k)))
    bounds = oracle.bucket_boundaries(srt, splitters)
    h = lcp_array(srt)
    expected_buckets = [
        (srt[lo:hi], [0] + h[lo + 1 : hi] if hi > lo else [])
        for lo, hi in zip(bounds, bounds[1:])
    ]
    for sorted_input in (srt, arr):
        assert character_based_samples(sorted_input, v) == oracle.character_based_samples(srt, v)
        assert character_based_samples(sorted_input, v, weights) == (
            oracle.character_based_samples(srt, v, weights)
        )
        buckets = split_into_buckets(sorted_input, h, splitters)
        assert [(b.to_list(), bh.tolist()) for b, bh in buckets] == expected_buckets
