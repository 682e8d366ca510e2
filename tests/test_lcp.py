"""Unit tests for repro.strings.lcp (LCP arrays, distinguishing prefixes, D/N)."""

import pytest

from repro.strings.lcp import (
    distinguishing_prefix_size,
    dn_ratio,
    lcp_array,
    merge_lcp_statistics,
)

from oracles.lcp import distinguishing_prefixes, lcp


class TestLcp:
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (b"", b"", 0),
            (b"a", b"", 0),
            (b"abc", b"abc", 3),
            (b"abc", b"abd", 2),
            (b"abc", b"abcd", 3),
            (b"xyz", b"abc", 0),
            (b"aaaa", b"aaab", 3),
        ],
    )
    def test_pairs(self, a, b, expected):
        assert lcp(a, b) == expected
        assert lcp(b, a) == expected

    def test_long_identical_prefix(self):
        a = b"x" * 10000 + b"a"
        b_ = b"x" * 10000 + b"b"
        assert lcp(a, b_) == 10000


class TestLcpArray:
    def test_example_from_paper_figure2(self):
        # the sorted strings of Fig. 2 on PE 1 after step 1
        strings = [b"algae", b"alpha", b"alps", b"order"]
        assert lcp_array(strings) == [0, 2, 3, 0]

    def test_empty_and_singleton(self):
        assert lcp_array([]) == []
        assert lcp_array([b"abc"]) == [0]

    def test_unsorted_input_allowed(self):
        assert lcp_array([b"b", b"a", b"ab"]) == [0, 0, 1]

    def test_lcp_array_of_sorted_accepts_duplicates(self):
        # a repeat shares its whole length with its predecessor, "" included
        assert lcp_array([b"", b"", b"a", b"a", b"ab", b"ab"]) == [0, 0, 0, 1, 1, 2]


class TestDistinguishingPrefixes:
    def test_all_distinct_single_characters(self):
        # each string is distinguished by its first character
        assert distinguishing_prefixes([b"a", b"b", b"c"]) == [1, 1, 1]

    def test_shared_prefixes(self):
        # "abc" vs "abd": both need 3 characters; "x" needs 1
        out = distinguishing_prefixes([b"abc", b"abd", b"x"])
        assert out == [3, 3, 1]

    def test_exact_duplicates_need_full_length(self):
        out = distinguishing_prefixes([b"dup", b"dup", b"z"])
        assert out[0] == 3 and out[1] == 3 and out[2] == 1

    def test_prefix_of_other_string(self):
        # "ab" is a proper prefix of "abc": DIST capped at the string length
        out = distinguishing_prefixes([b"ab", b"abc"])
        assert out == [2, 3]

    def test_order_independent_of_input_order(self):
        a = distinguishing_prefixes([b"abc", b"abd", b"x"])
        b = distinguishing_prefixes([b"x", b"abd", b"abc"])
        assert a == [3, 3, 1]
        assert b == [1, 3, 3]

    def test_single_string(self):
        assert distinguishing_prefixes([b"hello"]) == [1]
        assert distinguishing_prefixes([b""]) == [0]

    def test_empty_input(self):
        assert distinguishing_prefixes([]) == []

    def test_total_d_is_lower_bounded_by_n(self):
        strings = [b"aa", b"ab", b"ba", b"bb"]
        d = distinguishing_prefix_size(strings)
        assert d == 2 + 2 + 2 + 2


class TestDnRatio:
    def test_zero_for_empty(self):
        assert dn_ratio([]) == 0.0

    def test_one_for_duplicates(self):
        # all strings identical: every character must be inspected
        assert dn_ratio([b"xyz", b"xyz"]) == 1.0

    def test_dn_instance_hits_target(self):
        from repro.strings.generators import dn_instance

        for target in (0.0, 0.5, 1.0):
            data = dn_instance(300, target, length=60, seed=1)
            assert dn_ratio(data) == pytest.approx(target, abs=0.12)

    def test_monotone_in_prefix_position(self):
        from repro.strings.generators import dn_instance

        low = dn_ratio(dn_instance(200, 0.1, length=60, seed=2))
        high = dn_ratio(dn_instance(200, 0.9, length=60, seed=2))
        assert low < high


class TestMergeLcpStatistics:
    def test_small_case(self):
        mean_lcp, frac = merge_lcp_statistics([b"abc", b"abd", b"xyz"])
        # sorted: abc, abd, xyz -> lcps 2, 0 -> mean 1.0; mean len 3
        assert mean_lcp == pytest.approx(1.0)
        assert frac == pytest.approx(1.0 / 3.0)

    def test_degenerate_inputs(self):
        assert merge_lcp_statistics([]) == (0.0, 0.0)
        assert merge_lcp_statistics([b"abc"]) == (0.0, 0.0)
