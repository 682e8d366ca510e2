"""Unit tests for the sorting-output checkers."""

import pytest

from repro.strings.checker import (
    SortCheckError,
    check_distributed_sort,
    check_is_permutation,
    check_locally_sorted,
    check_prefix_permutation,
)


class TestLocallySorted:
    def test_accepts_sorted(self):
        check_locally_sorted([b"a", b"ab", b"b"])

    def test_accepts_duplicates(self):
        check_locally_sorted([b"a", b"a"])

    def test_accepts_empty(self):
        check_locally_sorted([])

    def test_rejects_unsorted(self):
        with pytest.raises(SortCheckError):
            check_locally_sorted([b"b", b"a"])


class TestPermutation:
    def test_accepts_reordering_with_duplicates(self):
        check_is_permutation([b"a", b"b", b"a"], [b"a", b"a", b"b"])

    def test_rejects_missing_element(self):
        with pytest.raises(SortCheckError):
            check_is_permutation([b"a", b"b"], [b"a", b"a"])

    def test_rejects_length_mismatch(self):
        with pytest.raises(SortCheckError):
            check_is_permutation([b"a"], [b"a", b"a"])


class TestSequentialCheck:
    """A sequential sort is checked as a distributed sort on one PE."""

    def test_full_check_passes(self):
        inputs = [b"b", b"a", b"ab"]
        outputs = [b"a", b"ab", b"b"]
        report = check_distributed_sort([inputs], [outputs], [[0, 1, 0]])
        assert report.num_strings == 3

    def test_rejects_wrong_lcp(self):
        with pytest.raises(SortCheckError, match="LCP array mismatch"):
            check_distributed_sort([[b"a", b"ab"]], [[b"a", b"ab"]], [[0, 0]])

    def test_lcp_optional(self):
        assert check_distributed_sort([[b"a"]], [[b"a"]]).num_strings == 1


class TestDistributedCheck:
    def test_valid_distribution(self):
        inputs = [[b"d", b"a"], [b"c", b"b"]]
        outputs = [[b"a", b"b"], [b"c", b"d"]]
        report = check_distributed_sort(inputs, outputs)
        assert report.num_pes == 2

    def test_empty_pe_is_skipped(self):
        inputs = [[b"b", b"a"], []]
        outputs = [[b"a", b"b"], []]
        report = check_distributed_sort(inputs, outputs)
        assert any("no strings" in n for n in report.notes)

    def test_rejects_boundary_violation(self):
        inputs = [[b"a", b"b"], [b"c", b"d"]]
        outputs = [[b"a", b"c"], [b"b", b"d"]]
        with pytest.raises(SortCheckError, match="boundary"):
            check_distributed_sort(inputs, outputs)

    def test_rejects_locally_unsorted_pe(self):
        inputs = [[b"a", b"b"]]
        outputs = [[b"b", b"a"]]
        with pytest.raises(SortCheckError):
            check_distributed_sort(inputs, outputs)

    def test_rejects_lost_string(self):
        inputs = [[b"a", b"b"]]
        outputs = [[b"a"]]
        with pytest.raises(SortCheckError):
            check_distributed_sort(inputs, outputs)

    def test_checks_lcp_arrays_when_given(self):
        inputs = [[b"ab", b"aa"]]
        outputs = [[b"aa", b"ab"]]
        check_distributed_sort(inputs, outputs, [[0, 1]])
        with pytest.raises(SortCheckError):
            check_distributed_sort(inputs, outputs, [[0, 2]])


class TestPrefixPermutationCheck:
    def test_accepts_valid_prefix_output(self):
        inputs = [[b"alpha", b"beta"], [b"alps", b"bet"]]
        # prefixes long enough to distinguish, globally sorted across PEs
        outputs = [[b"alph", b"alps"], [b"bet", b"beta"]]
        report = check_prefix_permutation(inputs, outputs)
        assert report.num_strings == 4

    def test_accepts_full_strings_as_prefixes(self):
        inputs = [[b"a", b"b"]]
        outputs = [[b"a", b"b"]]
        check_prefix_permutation(inputs, outputs)

    def test_rejects_count_mismatch(self):
        with pytest.raises(SortCheckError):
            check_prefix_permutation([[b"a", b"b"]], [[b"a"]])

    def test_rejects_prefix_of_nothing(self):
        inputs = [[b"alpha"]]
        outputs = [[b"zzz"]]
        with pytest.raises(SortCheckError):
            check_prefix_permutation(inputs, outputs)

    def test_rejects_unsorted_prefixes(self):
        inputs = [[b"alpha", b"beta"]]
        outputs = [[b"bet", b"alp"]]
        with pytest.raises(SortCheckError):
            check_prefix_permutation(inputs, outputs)

    def test_rejects_boundary_violation(self):
        inputs = [[b"aa", b"zz"], [b"mm", b"nn"]]
        outputs = [[b"aa", b"zz"], [b"mm", b"nn"]]
        with pytest.raises(SortCheckError):
            check_prefix_permutation(inputs, outputs)
