"""Tests for the scalar sequential sorters (MSD radix, multikey quicksort,
...), the test oracles of the local sort, and for the local sort's entry
by name, ``repro.sequential.sort_strings_with_lcp``.

Every scalar sorter must produce exactly the same output as Python's
built-in sort plus the correct LCP array, on a range of adversarial inputs
(duplicates, shared prefixes, empty strings, prefix-of-other-string cases),
including prefixes shared over more characters than Python allows frames.
The MSD radix and Multikey Quicksort character counters are pinned on this
module's corpus.
"""

import pytest

from repro import Cluster
from repro.sequential import CharStats, sort_strings_with_lcp
from repro.strings.packed import PackedStringArray
from repro.strings.generators import commoncrawl_like, dn_instance, random_strings, suffix_instance
from repro.strings.lcp import lcp_array

from engine_conformance import PAPER_ALGORITHMS
from inputs import duplicate_heavy
from oracles.lcp import lcp
from oracles.lcp_insertion import lcp_insertion_sort
from oracles.lcp_mergesort import lcp_mergesort
from oracles.msd_radix import msd_radix_sort
from oracles.multikey_quicksort import multikey_quicksort
from oracles.sorters import SORTERS


ALL_SORTERS = sorted(SORTERS)


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
        out, lcps = SORTERS[sorter](data)
        assert out == expected
        assert lcps == expected_lcps


class TestGeneratedInputs:
    @pytest.mark.parametrize("sorter", ALL_SORTERS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_strings(self, sorter, seed):
        data = random_strings(400, 0, 25, alphabet_size=4, seed=seed)
        expected, expected_lcps = _reference(data)
        out, lcps = SORTERS[sorter](data)
        assert out == expected
        assert lcps == expected_lcps

    @pytest.mark.parametrize("sorter", ALL_SORTERS)
    def test_duplicate_heavy(self, sorter):
        data = duplicate_heavy(600, num_distinct=15, seed=3)
        expected, expected_lcps = _reference(data)
        out, lcps = SORTERS[sorter](data)
        assert out == expected
        assert lcps == expected_lcps

    @pytest.mark.parametrize("sorter", ALL_SORTERS)
    def test_dn_instance(self, sorter):
        data = dn_instance(300, 0.6, length=50, seed=4)
        expected, expected_lcps = _reference(data)
        out, lcps = SORTERS[sorter](data)
        assert out == expected
        assert lcps == expected_lcps

    @pytest.mark.parametrize("sorter", ["msd_radix", "multikey_quicksort", "lcp_mergesort"])
    def test_web_corpus(self, sorter):
        data = commoncrawl_like(500, seed=5)
        expected, expected_lcps = _reference(data)
        out, lcps = SORTERS[sorter](data)
        assert out == expected
        assert lcps == expected_lcps

    @pytest.mark.parametrize("sorter", ["msd_radix", "lcp_mergesort"])
    def test_suffixes(self, sorter):
        data = suffix_instance(text_len=300, alphabet_size=3, seed=6)
        expected, expected_lcps = _reference(data)
        out, lcps = SORTERS[sorter](data)
        assert out == expected
        assert lcps == expected_lcps


#: 300 strings behind a 1000-byte shared prefix, and a chain of 1500
#: strings, each a prefix of the one before: both share more characters
#: than the interpreter's recursion limit allows frames
DEEP_CASES = {
    "shared_prefix_1000": [
        b"x" * 1000 + bytes([97 + i % 26]) * (i % 9) for i in range(300)
    ],
    "prefix_chain_1500": [b"a" * k for k in range(1500, 0, -1)],
}


class TestDeepSharedPrefixes:
    @pytest.mark.parametrize("sorter", ALL_SORTERS)
    @pytest.mark.parametrize("case", sorted(DEEP_CASES))
    def test_sorts_without_recursing_per_character(self, sorter, case):
        data = DEEP_CASES[case]
        out, lcps = SORTERS[sorter](list(data))
        assert out == sorted(data)
        assert lcps == [0] + [lcp(a, b) for a, b in zip(out, out[1:])]

    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
    @pytest.mark.parametrize("case", sorted(DEEP_CASES))
    def test_the_local_sort_runs_in_a_cluster(self, case, algorithm):
        data = DEEP_CASES[case]
        res = Cluster(4).sort(data, algorithm, check=True)
        assert res.sorted_strings == sorted(data)

    @pytest.mark.parametrize("radix", [False, True], ids=["argsort", "word_radix"])
    @pytest.mark.parametrize("case", sorted(DEEP_CASES))
    def test_either_kernel_sorts_like_the_oracles(self, monkeypatch, case, radix):
        """The packed local sort, either kernel forced, is every scalar
        oracle's ``(sorted, LCP)`` pair on prefixes shared over 1000 bytes."""
        import repro.sequential.vector_sort as vs

        data = DEEP_CASES[case]
        monkeypatch.setattr(vs, "_takes_radix", lambda arr: radix)
        out, lcps = sort_strings_with_lcp(list(data))
        got = (out.to_list(), lcps.tolist())
        for name in ALL_SORTERS:
            assert got == SORTERS[name](list(data)), name


def _pinned_corpus():
    corpus = dict(FIXED_CASES)
    for seed in (0, 1, 2):
        corpus[f"random_{seed}"] = random_strings(400, 0, 25, alphabet_size=4, seed=seed)
    corpus["duplicate_heavy"] = duplicate_heavy(600, num_distinct=15, seed=3)
    corpus["dn_instance"] = dn_instance(300, 0.6, length=50, seed=4)
    corpus["web"] = commoncrawl_like(500, seed=5)
    corpus["suffixes"] = suffix_instance(text_len=300, alphabet_size=3, seed=6)
    return corpus


PINNED_RUNS = {
    "msd_radix": lambda data, stats: msd_radix_sort(data, 0, stats),
    "msd_radix/radix_threshold=2": lambda data, stats: msd_radix_sort(
        data, 0, stats, radix_threshold=2
    ),
    "multikey_quicksort": lambda data, stats: multikey_quicksort(data, 0, stats),
    "multikey_quicksort/insertion_threshold=1": lambda data, stats: multikey_quicksort(
        data, 0, stats, insertion_threshold=1
    ),
}

#: ``(chars_inspected, bucket_passes)`` per run and case, as the recursive
#: sorters counted them before their work stacks replaced the recursion
PINNED_CHAR_STATS = {
    'msd_radix': {
        'all_identical': (200, 6),
        'binary_alphabet': (454, 4),
        'dn_instance': (11040, 44),
        'duplicate_heavy': (12112, 300),
        'empty': (0, 0),
        'empty_strings': (0, 0),
        'long_common_prefix': (5249, 201),
        'paper_figure2': (41, 0),
        'prefix_chain': (10, 0),
        'random_0': (2521, 17),
        'random_1': (2508, 14),
        'random_2': (2525, 18),
        'reverse_prefix_chain': (10, 0),
        'single': (0, 0),
        'single_chars': (343, 1),
        'suffixes': (2449, 19),
        'two_equal': (4, 0),
        'web': (10007, 95),
    },
    'msd_radix/radix_threshold=2': {
        'all_identical': (200, 6),
        'binary_alphabet': (384, 63),
        'dn_instance': (9300, 35),
        'duplicate_heavy': (12000, 297),
        'empty': (0, 0),
        'empty_strings': (1, 1),
        'long_common_prefix': (5226, 201),
        'paper_figure2': (46, 12),
        'prefix_chain': (15, 5),
        'random_0': (1769, 230),
        'random_1': (1825, 240),
        'random_2': (1808, 243),
        'reverse_prefix_chain': (15, 5),
        'single': (0, 0),
        'single_chars': (37, 1),
        'suffixes': (1970, 332),
        'two_equal': (8, 5),
        'web': (10348, 1545),
    },
    'multikey_quicksort': {
        'all_identical': (200, 6),
        'binary_alphabet': (454, 4),
        'dn_instance': (11444, 48),
        'duplicate_heavy': (13370, 311),
        'empty': (0, 0),
        'empty_strings': (0, 0),
        'long_common_prefix': (5249, 201),
        'paper_figure2': (41, 0),
        'prefix_chain': (10, 0),
        'random_0': (2987, 20),
        'random_1': (2888, 17),
        'random_2': (2923, 21),
        'reverse_prefix_chain': (10, 0),
        'single': (0, 0),
        'single_chars': (343, 1),
        'suffixes': (2751, 21),
        'two_equal': (4, 0),
        'web': (11544, 106),
    },
    'multikey_quicksort/insertion_threshold=1': {
        'all_identical': (200, 6),
        'binary_alphabet': (544, 94),
        'dn_instance': (10939, 202),
        'duplicate_heavy': (13370, 311),
        'empty': (0, 0),
        'empty_strings': (1, 1),
        'long_common_prefix': (5293, 215),
        'paper_figure2': (61, 15),
        'prefix_chain': (15, 5),
        'random_0': (3195, 376),
        'random_1': (3132, 383),
        'random_2': (3172, 387),
        'reverse_prefix_chain': (15, 5),
        'single': (0, 0),
        'single_chars': (149, 21),
        'suffixes': (3103, 445),
        'two_equal': (8, 5),
        'web': (12689, 1704),
    },
}


@pytest.mark.parametrize("run", sorted(PINNED_RUNS))
def test_char_stats_are_pinned(run):
    got = {}
    for name, data in _pinned_corpus().items():
        stats = CharStats()
        PINNED_RUNS[run](list(data), stats)
        got[name] = (stats.chars_inspected, stats.bucket_passes)
    assert got == PINNED_CHAR_STATS[run]


class TestInputPreservation:
    @pytest.mark.parametrize("sorter", ALL_SORTERS)
    def test_input_not_mutated(self, sorter):
        data = random_strings(100, 1, 10, seed=7)
        snapshot = list(data)
        SORTERS[sorter](data)
        assert data == snapshot


class TestDispatcher:
    """``sort_strings_with_lcp`` is the local sort by name: the packed kernels."""

    @pytest.mark.parametrize("algorithm", ["quantum_sort", "multikey_quicksort"])
    def test_unknown_algorithm_raises(self, algorithm):
        with pytest.raises(KeyError, match="msd_radix"):
            sort_strings_with_lcp([b"a"], algorithm)

    def test_default_algorithm_is_msd_radix(self):
        out, lcps = sort_strings_with_lcp([b"b", b"a", b"ab"])
        assert out.to_list() == [b"a", b"ab", b"b"]
        assert lcps.dtype.name == "int64" and lcps.tolist() == [0, 1, 0]

    @pytest.mark.parametrize("case", sorted(FIXED_CASES))
    def test_packs_a_list_once_and_sorts_like_the_oracle(self, case):
        data = FIXED_CASES[case]
        want = msd_radix_sort(data)
        packed = PackedStringArray.from_strings(data)
        for given in (data, packed):
            stats = CharStats()
            out, lcps = sort_strings_with_lcp(given, "msd_radix", stats)
            assert isinstance(out, PackedStringArray)
            assert (out.to_list(), lcps.tolist()) == want
            assert stats.chars_inspected == packed.num_chars


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
