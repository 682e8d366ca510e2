"""Tests for the atomic and the LCP-aware K-way loser trees."""

import itertools

import numpy as np
import pytest

from repro.sequential import CharStats, lcp_merge, multiway_merge
from repro.sequential.lcp_losertree import lcp_multiway_merge_packed
from repro.strings.generators import random_strings
from repro.strings.lcp import lcp_array
from repro.strings.packed import PackedStringArray

from inputs import duplicate_heavy
from oracles.losertree import LcpLoserTree, LoserTree, lcp_multiway_merge


def _runs_from(strings, k, seed=0):
    """Deal strings into k sorted runs."""
    runs = [[] for _ in range(k)]
    for i, s in enumerate(strings):
        runs[i % k].append(s)
    return [sorted(r) for r in runs]


class TestAtomicLoserTree:
    def test_merge_two_runs(self):
        runs = [[b"a", b"c"], [b"b", b"d"]]
        assert multiway_merge(runs) == [b"a", b"b", b"c", b"d"]

    def test_merge_empty_runs(self):
        assert multiway_merge([[], [], []]) == []
        assert multiway_merge([[], [b"x"]]) == [b"x"]

    def test_merge_single_run(self):
        assert multiway_merge([[b"a", b"b"]]) == [b"a", b"b"]

    def test_merge_non_power_of_two_runs(self):
        runs = _runs_from(random_strings(100, 0, 8, seed=1), 5)
        assert multiway_merge(runs) == sorted(itertools.chain(*runs))

    def test_merge_many_runs(self):
        runs = _runs_from(random_strings(300, 0, 6, alphabet_size=3, seed=2), 17)
        assert multiway_merge(runs) == sorted(itertools.chain(*runs))

    def test_merge_with_duplicates(self):
        runs = _runs_from(duplicate_heavy(200, 8, 5, seed=3), 6)
        assert multiway_merge(runs) == sorted(itertools.chain(*runs))

    def test_pop_and_peek_interface(self):
        tree = LoserTree([[b"b"], [b"a"]])
        assert not tree.empty()
        assert tree.peek() == b"a"
        assert tree.pop() == b"a"
        assert tree.pop() == b"b"
        assert tree.empty()
        with pytest.raises(IndexError):
            tree.pop()

    def test_counts_characters(self):
        stats = CharStats()
        runs = [[b"aaaa1", b"aaaa3"], [b"aaaa2", b"aaaa4"]]
        multiway_merge(runs, stats)
        # atomic merging rescans the common prefix on every comparison
        assert stats.chars_inspected >= 10


class TestLcpLoserTree:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 16])
    def test_matches_reference(self, k):
        strings = random_strings(250, 0, 10, alphabet_size=3, seed=k)
        runs = _runs_from(strings, k)
        lcps = [lcp_array(r) for r in runs]
        merged, out_lcps = lcp_multiway_merge(runs, lcps)
        expected = sorted(strings)
        assert merged == expected
        assert out_lcps == lcp_array(expected)

    def test_computes_lcps_when_not_given(self):
        runs = [[b"aa", b"ab"], [b"aab", b"b"]]
        merged, out_lcps = lcp_multiway_merge(runs)
        assert merged == [b"aa", b"aab", b"ab", b"b"]
        assert out_lcps == [0, 2, 1, 0]

    def test_rejects_mismatched_lcp_arrays(self):
        with pytest.raises(ValueError):
            LcpLoserTree([[b"a", b"b"]], [[0]])

    def test_empty_inputs(self):
        merged, lcps = lcp_multiway_merge([[], []])
        assert merged == [] and lcps == []

    def test_heavy_duplicates(self):
        strings = duplicate_heavy(300, 5, 6, seed=9)
        runs = _runs_from(strings, 7)
        merged, out_lcps = lcp_multiway_merge(runs, [lcp_array(r) for r in runs])
        assert merged == sorted(strings)
        assert out_lcps == lcp_array(sorted(strings))

    def test_all_runs_identical(self):
        run = [b"dup"] * 10
        runs = [list(run) for _ in range(4)]
        merged, out_lcps = lcp_multiway_merge(runs, [lcp_array(r) for r in runs])
        assert merged == [b"dup"] * 40
        assert out_lcps == [0] + [3] * 39

    def test_prefix_chains_across_runs(self):
        runs = [[b"a", b"abc"], [b"ab", b"abcd"], [b"abcde"]]
        merged, out_lcps = lcp_multiway_merge(runs, [lcp_array(r) for r in runs])
        expected = sorted(itertools.chain(*runs))
        assert merged == expected
        assert out_lcps == lcp_array(expected)

    def test_pop_returns_lcp_pairs(self):
        tree = LcpLoserTree([[b"ab", b"ac"], [b"abq"]])
        values = []
        while not tree.empty():
            values.append(tree.pop())
        assert [v[0] for v in values] == [b"ab", b"abq", b"ac"]
        assert [v[1] for v in values] == [0, 2, 1]
        with pytest.raises(IndexError):
            tree.pop()

    def test_peek(self):
        tree = LcpLoserTree([[b"z"], [b"a"]])
        assert tree.peek() == b"a"


class TestPackedMergeDegenerateShapes:
    """Shapes with nothing to play; the differential property test in
    ``test_properties_sequential.py`` covers everything else."""

    @staticmethod
    def _packed(runs):
        return (
            [PackedStringArray.from_strings(r) for r in runs],
            [np.array(lcp_array(r), dtype=np.int64) for r in runs],
        )

    def test_all_runs_empty(self):
        merged, lcps = lcp_multiway_merge_packed(*self._packed([[], [], []]))
        assert len(merged) == 0 and merged.to_list() == []
        assert lcps.dtype == np.int64 and lcps.shape == (0,)
        merged, lcps = lcp_multiway_merge_packed([], [])
        assert len(merged) == 0 and lcps.shape == (0,)

    def test_one_non_empty_run_comes_back_zero_copy(self):
        runs, lcps = self._packed([[], [b"ab", b"abc", b"b"], [], []])
        lcps[1][0] = 5  # the ignored first entry
        stats = CharStats()
        merged, out_lcps = lcp_multiway_merge_packed(runs, lcps, stats)
        assert merged.buffer is runs[1].buffer
        assert merged.to_list() == [b"ab", b"abc", b"b"]
        assert out_lcps.tolist() == [0, 2, 0]
        assert lcps[1].tolist() == [5, 2, 0]  # the caller's array is untouched
        assert stats == CharStats()

    def test_single_run(self):
        runs, lcps = self._packed([[b"", b"a", b"a"]])
        merged, out_lcps = lcp_multiway_merge_packed(runs, lcps)
        assert merged.buffer is runs[0].buffer
        assert out_lcps.tolist() == [0, 0, 1]

    def test_run_of_only_empty_strings(self):
        runs, lcps = self._packed([[b"", b""], [b"", b"x"], [b""]])
        stats, scalar_stats = CharStats(), CharStats()
        merged, out_lcps = lcp_multiway_merge_packed(runs, lcps, stats)
        expected, expected_lcps = lcp_multiway_merge(
            [r.to_list() for r in runs], [h.tolist() for h in lcps], scalar_stats
        )
        assert merged.to_list() == expected == [b"", b"", b"", b"", b"x"]
        assert out_lcps.tolist() == expected_lcps == [0, 0, 0, 0, 0]
        assert stats == scalar_stats


class TestLcpEfficiency:
    def test_lcp_tree_saves_character_work_on_long_prefixes(self):
        # runs whose strings share a 500-character prefix: the atomic tree
        # rescans it for every comparison, the LCP tree only once per run
        common = b"c" * 500
        strings = [common + bytes([97 + i % 26, 97 + (i // 26) % 26]) for i in range(200)]
        runs = _runs_from(strings, 8)
        lcps = [lcp_array(r) for r in runs]

        atomic_stats = CharStats()
        multiway_merge(runs, atomic_stats)
        lcp_stats = CharStats()
        merged, _ = lcp_multiway_merge(runs, lcps, lcp_stats)

        assert merged == sorted(strings)
        assert lcp_stats.chars_inspected * 10 < atomic_stats.chars_inspected

    def test_packed_merge_saves_character_work_on_long_prefixes(self):
        # the packed twin, on enough strings for the word radix: it starts
        # past the 500 shared characters, which it reads only to compare
        # the run heads
        common = b"c" * 500
        strings = [common + bytes([97 + i % 26, 97 + (i // 26) % 26]) for i in range(1100)]
        runs = _runs_from(strings, 8)

        atomic_stats = CharStats()
        multiway_merge(runs, atomic_stats)
        packed_stats = CharStats()
        merged, _ = lcp_multiway_merge_packed(
            [PackedStringArray.from_strings(r) for r in runs],
            [np.array(lcp_array(r), dtype=np.int64) for r in runs],
            packed_stats,
        )

        assert merged.to_list() == sorted(strings)
        assert packed_stats.chars_inspected * 10 < atomic_stats.chars_inspected


class TestPackedMergeRadix:
    def test_charges_the_head_comparisons_and_the_words_read(self):
        # three runs of 400 strings: a 10-byte prefix, byte 10 the run's own
        # letter, 15 filler bytes, and a last byte that counts.  Every run's
        # LCPs prove 26 shared bytes; the first head parts from the second
        # at byte 10 (11 characters read) and agrees with the third on the
        # 10 left.  The radix starts at byte 10 with 17 bytes left in every
        # string and reads one word of each (which groups the letters), a
        # second, equal in all (skipped, but read), and the last byte,
        # which splits every tie.
        prefix = b"0123456789"
        runs = [
            sorted(prefix + letter + b"x" * 8 + b"y" * 7 + bytes([i % 256]) for i in range(400))
            for letter in (b"a", b"b", b"a")
        ]
        stats = CharStats()
        merged, lcps = lcp_multiway_merge_packed(
            [PackedStringArray.from_strings(r) for r in runs],
            [np.array(lcp_array(r), dtype=np.int64) for r in runs],
            stats,
        )
        expected = sorted(s for r in runs for s in r)
        assert merged.to_list() == expected
        assert lcps.tolist() == lcp_array(expected)
        assert stats == CharStats(chars_inspected=11 + 10 + 17 * 1200, string_comparisons=2)


class TestBinaryLcpMerge:
    def test_binary_merge_reference(self):
        a = sorted(random_strings(80, 0, 8, seed=1))
        b = sorted(random_strings(90, 0, 8, seed=2))
        merged, lcps = lcp_merge(a, lcp_array(a), b, lcp_array(b))
        expected = sorted(a + b)
        assert merged == expected
        assert lcps == lcp_array(expected)

    def test_binary_merge_one_side_empty(self):
        a = sorted(random_strings(10, 1, 5, seed=3))
        merged, lcps = lcp_merge(a, lcp_array(a), [], [])
        assert merged == a
        assert lcps == lcp_array(a)

    def test_binary_merge_rejects_bad_lcps(self):
        with pytest.raises(ValueError):
            lcp_merge([b"a"], [], [b"b"], [0])

    def test_binary_and_kway_agree(self):
        a = sorted(random_strings(60, 0, 6, alphabet_size=2, seed=4))
        b = sorted(random_strings(60, 0, 6, alphabet_size=2, seed=5))
        m1, l1 = lcp_merge(a, lcp_array(a), b, lcp_array(b))
        m2, l2 = lcp_multiway_merge([a, b], [lcp_array(a), lcp_array(b)])
        assert m1 == m2
        assert l1 == l2
