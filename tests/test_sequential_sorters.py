"""Tests for the sequential string sorters (MSD radix, multikey quicksort, ...).

Every sorter must produce exactly the same output as Python's built-in sort
plus the correct LCP array, on a range of adversarial inputs (duplicates,
shared prefixes, empty strings, prefix-of-other-string cases).
"""

import pytest

from repro.sequential import (
    CharStats,
    SEQUENTIAL_SORTERS,
    lcp_insertion_sort,
    lcp_mergesort,
    msd_radix_sort,
    multikey_quicksort,
    sort_strings,
    sort_strings_with_lcp,
)
from repro.strings.generators import commoncrawl_like, dn_instance, random_strings, suffix_instance
from repro.strings.lcp import lcp_array

from inputs import duplicate_heavy


ALL_SORTERS = sorted(SEQUENTIAL_SORTERS)


def _reference(strings):
    out = sorted(strings)
    return out, lcp_array(out)


FIXED_CASES = {
    "empty": [],
    "single": [b"hello"],
    "two_equal": [b"same", b"same"],
    "empty_strings": [b"", b"", b"a"],
    "prefix_chain": [b"a", b"ab", b"abc", b"abcd", b"abcde"],
    "reverse_prefix_chain": [b"abcde", b"abcd", b"abc", b"ab", b"a"],
    "paper_figure2": [
        b"alpha", b"order", b"alps", b"algae", b"sorter", b"snow",
        b"algo", b"sorbet", b"sorted", b"orange", b"soul", b"organ",
    ],
    "all_identical": [b"xyzzy"] * 40,
    "binary_alphabet": [bytes([97 + (i >> j) % 2 for j in range(8)]) for i in range(64)],
    "long_common_prefix": [b"p" * 200 + bytes([c]) for c in range(97, 123)],
    "single_chars": [bytes([c]) for c in range(255, 0, -7)],
}


class TestFixedCases:
    @pytest.mark.parametrize("sorter", ALL_SORTERS)
    @pytest.mark.parametrize("case", sorted(FIXED_CASES))
    def test_sorts_and_produces_lcp(self, sorter, case):
        data = FIXED_CASES[case]
        expected, expected_lcps = _reference(data)
        out, lcps = sort_strings_with_lcp(data, sorter)
        assert out == expected
        assert lcps == expected_lcps


class TestGeneratedInputs:
    @pytest.mark.parametrize("sorter", ALL_SORTERS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_strings(self, sorter, seed):
        data = random_strings(400, 0, 25, alphabet_size=4, seed=seed)
        expected, expected_lcps = _reference(data)
        out, lcps = sort_strings_with_lcp(data, sorter)
        assert out == expected
        assert lcps == expected_lcps

    @pytest.mark.parametrize("sorter", ALL_SORTERS)
    def test_duplicate_heavy(self, sorter):
        data = duplicate_heavy(600, num_distinct=15, seed=3)
        expected, expected_lcps = _reference(data)
        out, lcps = sort_strings_with_lcp(data, sorter)
        assert out == expected
        assert lcps == expected_lcps

    @pytest.mark.parametrize("sorter", ALL_SORTERS)
    def test_dn_instance(self, sorter):
        data = dn_instance(300, 0.6, length=50, seed=4)
        expected, expected_lcps = _reference(data)
        out, lcps = sort_strings_with_lcp(data, sorter)
        assert out == expected
        assert lcps == expected_lcps

    @pytest.mark.parametrize("sorter", ["msd_radix", "multikey_quicksort", "lcp_mergesort"])
    def test_web_corpus(self, sorter):
        data = commoncrawl_like(500, seed=5)
        expected, expected_lcps = _reference(data)
        out, lcps = sort_strings_with_lcp(data, sorter)
        assert out == expected
        assert lcps == expected_lcps

    @pytest.mark.parametrize("sorter", ["msd_radix", "lcp_mergesort"])
    def test_suffixes(self, sorter):
        data = suffix_instance(text_len=300, alphabet_size=3, seed=6)
        expected, expected_lcps = _reference(data)
        out, lcps = sort_strings_with_lcp(data, sorter)
        assert out == expected
        assert lcps == expected_lcps


class TestInputPreservation:
    @pytest.mark.parametrize("sorter", ALL_SORTERS)
    def test_input_not_mutated(self, sorter):
        data = random_strings(100, 1, 10, seed=7)
        snapshot = list(data)
        sort_strings_with_lcp(data, sorter)
        assert data == snapshot


class TestDispatcher:
    def test_unknown_algorithm_raises(self):
        with pytest.raises(KeyError):
            sort_strings_with_lcp([b"a"], "quantum_sort")

    def test_sort_strings_drops_lcps(self):
        assert sort_strings([b"b", b"a"]) == [b"a", b"b"]

    def test_default_algorithm_is_msd_radix(self):
        out, lcps = sort_strings_with_lcp([b"b", b"a", b"ab"])
        assert out == [b"a", b"ab", b"b"]
        assert lcps == [0, 1, 0]


class TestThresholdBoundaries:
    """Recursion/threshold edges: the algorithms must agree for any threshold."""

    @pytest.mark.parametrize("threshold", [1, 2, 3, 8, 64])
    def test_multikey_insertion_threshold(self, threshold):
        data = random_strings(150, 0, 12, alphabet_size=3, seed=8)
        expected, expected_lcps = _reference(data)
        out, lcps = multikey_quicksort(data, insertion_threshold=threshold)
        assert out == expected
        assert lcps == expected_lcps

    @pytest.mark.parametrize("radix_threshold", [1, 2, 16, 1000])
    def test_msd_radix_threshold(self, radix_threshold):
        data = random_strings(200, 0, 12, alphabet_size=3, seed=9)
        expected, expected_lcps = _reference(data)
        out, lcps = msd_radix_sort(data, radix_threshold=radix_threshold)
        assert out == expected
        assert lcps == expected_lcps


class TestDepthParameter:
    """Sorting with a known common prefix must only look past that prefix."""

    def test_mkqs_with_depth(self):
        common = b"prefix--"
        tails = [b"zeta", b"alpha", b"beta", b"alpha"]
        data = [common + t for t in tails]
        out, lcps = multikey_quicksort(data, depth=len(common))
        assert out == sorted(data)
        # internal boundaries reflect the true LCPs
        assert lcps[1:] == lcp_array(out)[1:]

    def test_insertion_with_depth(self):
        common = b"xy"
        data = [common + t for t in [b"c", b"a", b"b", b"a"]]
        out, lcps = lcp_insertion_sort(data, depth=2)
        assert out == sorted(data)
        assert lcps[1:] == lcp_array(out)[1:]


class TestWorkCounters:
    def test_character_work_scales_with_d_not_n_chars(self):
        # strings share a huge non-distinguishing suffix; an efficient string
        # sorter must not inspect it
        data = [bytes([c]) + b"z" * 5000 for c in range(97, 123)]
        stats = CharStats()
        msd_radix_sort(data, stats=stats)
        # D is 26 characters; allow generous slack for base-case scanning
        assert stats.chars_inspected < 26 * 50

    def test_lcp_mergesort_char_bound(self):
        data = dn_instance(200, 0.3, length=60, seed=10)
        stats = CharStats()
        lcp_mergesort(data, stats=stats)
        from repro.strings.lcp import distinguishing_prefix_size
        import math

        d = distinguishing_prefix_size(data)
        n = len(data)
        # O(D + n log n) character comparisons with a small constant
        assert stats.chars_inspected <= 4 * (d + n * math.ceil(math.log2(n)))

    def test_stats_accumulate_and_merge(self):
        stats = CharStats()
        msd_radix_sort([b"ab", b"aa"], stats=stats)
        assert stats.chars_inspected > 0
        before = stats.chars_inspected
        other = CharStats()
        other.add_chars(5)
        stats.merge(other)
        assert stats.chars_inspected == before + 5
