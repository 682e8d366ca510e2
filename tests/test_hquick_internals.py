"""Unit tests for hQuick's internal helpers (pivot selection, subcube gossip)."""

import pytest

from repro.dist.hquick import _local_median, _subcube_allgather, _weighted_median, hquick_sort
from repro.mpi import run_spmd
from repro.session import Cluster
from repro.strings.generators import random_strings


class TestLocalMedian:
    def test_empty(self):
        assert _local_median([]) is None

    def test_single(self):
        assert _local_median([b"x"]) == b"x"

    def test_median_of_unsorted(self):
        assert _local_median([b"c", b"a", b"b"]) == b"b"

    def test_even_count_takes_upper_middle(self):
        assert _local_median([b"d", b"a", b"b", b"c"]) == b"c"


class TestWeightedMedian:
    def test_ignores_empty_contributions(self):
        entries = [(None, 0), (b"m", 10), (None, 0)]
        assert _weighted_median(entries) == b"m"

    def test_all_empty_gives_empty_string(self):
        assert _weighted_median([(None, 0), (None, 0)]) == b""

    def test_weighting_shifts_the_median(self):
        entries = [(b"a", 1), (b"b", 1), (b"z", 10)]
        assert _weighted_median(entries) == b"z"

    def test_order_independent(self):
        a = [(b"a", 3), (b"b", 2), (b"c", 5)]
        b = list(reversed(a))
        assert _weighted_median(a) == _weighted_median(b)

    def test_balanced_weights_pick_middle(self):
        entries = [(b"a", 1), (b"b", 1), (b"c", 1)]
        assert _weighted_median(entries) == b"b"


class TestSubcubeAllgather:
    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_gathers_exactly_the_subcube(self, dims):
        p = 8

        def prog(comm):
            gathered = _subcube_allgather(comm, dims, [(bytes([97 + comm.rank]), comm.rank)])
            return sorted(w for _, w in gathered)

        results, _ = run_spmd(p, prog)
        size = 1 << dims
        for rank, members in enumerate(results):
            base = rank & ~(size - 1)
            assert members == list(range(base, base + size))


class TestHQuickEndToEnd:
    def test_single_pe_is_a_local_sort(self):
        data = random_strings(200, 1, 10, seed=1)

        def prog(comm):
            return hquick_sort(comm, data)

        results, report = run_spmd(1, prog)
        assert results[0][0] == sorted(data)
        assert report.total_bytes_sent == 0

    def test_all_ranks_empty(self):
        def prog(comm):
            return hquick_sort(comm, [])

        results, _ = run_spmd(4, prog)
        assert all(len(run) == 0 and len(lcps) == 0 for run, lcps in results)

    def test_a_long_shared_prefix_sorts_on_the_packed_kernel(self):
        # the scalar msd_radix recursion took one frame per shared byte and
        # overflowed the stack at a 1000-byte common prefix
        data = [b"x" * 1000 + bytes([97 + i % 26]) * (i % 9) for i in range(300)]
        res = Cluster(4).sort(data, "hquick", check=True)
        assert res.sorted_strings == sorted(data)

    def test_identical_strings_everywhere(self):
        def prog(comm):
            return hquick_sort(comm, [b"tie"] * 50)

        results, _ = run_spmd(4, prog)
        flat = [s for r in results for s in r[0]]
        assert flat == [b"tie"] * 200
