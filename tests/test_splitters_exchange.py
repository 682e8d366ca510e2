"""Tests for global splitter determination and the all-to-all string exchange."""

import pytest

from repro.dist.exchange import exchange_buckets
from repro.dist.partition import split_into_buckets
from repro.dist.splitters import determine_splitters
from repro.mpi import SpmdError, run_spmd
from repro.sequential import sort_strings_with_lcp
from repro.strings.generators import dn_instance, random_strings
from repro.strings.lcp import lcp_array


def _blocks(strings, p):
    n = len(strings)
    return [strings[r * n // p : (r + 1) * n // p] for r in range(p)]


class TestDetermineSplitters:
    @pytest.mark.parametrize("sample_sort", ["central", "hquick"])
    @pytest.mark.parametrize("scheme", ["string", "character"])
    def test_splitters_sorted_and_correct_count(self, sample_sort, scheme):
        strings = random_strings(800, 1, 15, seed=1)
        blocks = _blocks(strings, 4)

        def prog(comm, local):
            local_sorted, _ = sort_strings_with_lcp(local)
            return determine_splitters(
                comm, local_sorted, scheme=scheme, sample_sort=sample_sort
            )

        results, _ = run_spmd(4, prog, args_per_rank=[(b,) for b in blocks])
        # every rank receives the same splitters
        assert all(r == results[0] for r in results)
        splitters = results[0]
        assert len(splitters) == 3
        assert splitters == sorted(splitters)

    def test_splitters_balance_buckets(self):
        strings = dn_instance(1200, 0.3, length=40, seed=2)
        blocks = _blocks(strings, 4)

        def prog(comm, local):
            local_sorted, lcps = sort_strings_with_lcp(local)
            splitters = determine_splitters(comm, local_sorted, oversampling=16)
            buckets = split_into_buckets(local_sorted, lcps, splitters)
            return [len(b[0]) for b in buckets]

        results, _ = run_spmd(4, prog, args_per_rank=[(b,) for b in blocks])
        bucket_totals = [sum(r[j] for r in results) for j in range(4)]
        assert sum(bucket_totals) == 1200
        # Theorem 2 with v=16: each bucket <= n/p + n/v = 300 + 75
        assert max(bucket_totals) <= 300 + 75 + 4

    def test_invalid_scheme_and_sorter(self):
        def prog_scheme(comm, local):
            return determine_splitters(comm, local, scheme="bogus")

        def prog_sorter(comm, local):
            return determine_splitters(comm, local, sample_sort="bogus")

        with pytest.raises(SpmdError):
            run_spmd(2, prog_scheme, args_per_rank=[([b"a"],), ([b"b"],)])
        with pytest.raises(SpmdError):
            run_spmd(2, prog_sorter, args_per_rank=[([b"a"],), ([b"b"],)])

    def test_empty_local_input_on_some_ranks(self):
        blocks = [[b"m", b"n"], [], [b"a", b"z"], []]

        def prog(comm, local):
            local_sorted, _ = sort_strings_with_lcp(local)
            return determine_splitters(comm, local_sorted)

        results, _ = run_spmd(4, prog, args_per_rank=[(b,) for b in blocks])
        assert all(r == results[0] for r in results)


class TestExchangeBuckets:
    @pytest.mark.parametrize("compression", [False, True])
    def test_exchange_is_a_global_transpose(self, compression):
        strings = random_strings(600, 1, 12, seed=3)
        blocks = _blocks(strings, 3)

        def prog(comm, local):
            local_sorted, lcps = sort_strings_with_lcp(local)
            splitters = determine_splitters(comm, local_sorted)
            buckets = split_into_buckets(local_sorted, lcps, splitters)
            received = exchange_buckets(comm, buckets, lcp_compression=compression)
            # every received run must be sorted and carry a correct LCP array
            for run, run_lcps in received:
                assert run == sorted(run)
                assert list(run_lcps[1:]) == lcp_array(run)[1:]
            return [s for run, _ in received for s in run]

        results, _ = run_spmd(3, prog, args_per_rank=[(b,) for b in blocks])
        # nothing lost, nothing duplicated
        flat = sorted(s for r in results for s in r)
        assert flat == sorted(strings)

    def test_compression_saves_bytes_on_shared_prefixes(self):
        strings = dn_instance(900, 0.9, length=60, seed=4)
        blocks = _blocks(strings, 3)

        def prog(comm, local, compress):
            local_sorted, lcps = sort_strings_with_lcp(local)
            splitters = determine_splitters(comm, local_sorted)
            buckets = split_into_buckets(local_sorted, lcps, splitters)
            exchange_buckets(comm, buckets, lcp_compression=compress)

        _, plain = run_spmd(3, prog, args_per_rank=[(b, False) for b in blocks])
        _, packed = run_spmd(3, prog, args_per_rank=[(b, True) for b in blocks])
        assert packed.total_bytes_sent < 0.7 * plain.total_bytes_sent

    def test_wrong_bucket_count_rejected(self):
        def prog(comm, local):
            return exchange_buckets(comm, [(local, [0] * len(local))])

        with pytest.raises(SpmdError):
            run_spmd(2, prog, args_per_rank=[([b"a"],), ([b"b"],)])

    def test_uncompressed_exchange_ships_caller_lcps(self):
        """With ship_lcps (default) the caller's LCP arrays ride along as
        varints; opting out restores the bare paper-faithful message format,
        and the receiver gets no LCP arrays."""
        strings = dn_instance(600, 0.8, length=40, seed=9)
        blocks = _blocks(strings, 3)

        def prog(comm, local, ship):
            local_sorted, lcps = sort_strings_with_lcp(local)
            splitters = determine_splitters(comm, local_sorted)
            buckets = split_into_buckets(local_sorted, lcps, splitters)
            received = exchange_buckets(
                comm, buckets, lcp_compression=False, ship_lcps=ship
            )
            for run, run_lcps in received:
                if ship:
                    assert list(run_lcps[1:]) == lcp_array(run)[1:]
                else:
                    assert run_lcps is None

        _, shipped = run_spmd(3, prog, args_per_rank=[(b, True) for b in blocks])
        _, bare = run_spmd(3, prog, args_per_rank=[(b, False) for b in blocks])
        # the LCP varints cost wire bytes — they are not a free lunch
        assert shipped.total_bytes_sent > bare.total_bytes_sent

    @pytest.mark.parametrize("p", [4, 6])
    @pytest.mark.parametrize("compression", [False, True])
    @pytest.mark.parametrize("topology", ["direct", "hypercube"])
    def test_payloads_ride_every_topology(self, topology, compression, p):
        """Each bucket's extra payload reaches its destination on every route,
        the hypercube's fallback round at p = 6 included."""

        def prog(comm):
            buckets = [([b"x%d" % dst, b"x%dy" % dst], [0, 2]) for dst in range(comm.size)]
            payloads = [100 * comm.rank + dst for dst in range(comm.size)]
            received = exchange_buckets(
                comm,
                buckets,
                lcp_compression=compression,
                payloads=payloads,
                topology=topology,
            )
            return [(list(run), list(lcps), payload) for run, lcps, payload in received]

        results, _ = run_spmd(p, prog)
        for rank, rows in enumerate(results):
            assert rows == [
                ([b"x%d" % rank, b"x%dy" % rank], [0, 2], 100 * src + rank)
                for src in range(p)
            ]

    @pytest.mark.parametrize("p", [4, 6])
    @pytest.mark.parametrize("compression", [False, True])
    @pytest.mark.parametrize("topology", ["hypercube"])
    def test_routed_delivery_matches_direct(self, topology, compression, p):
        """Routing changes how buckets travel, never the runs nor origin bytes."""
        strings = dn_instance(600, 0.7, length=24, seed=5)
        blocks = _blocks(strings, p)

        def prog(comm, local, route):
            local_sorted, lcps = sort_strings_with_lcp(local)
            splitters = determine_splitters(comm, local_sorted)
            buckets = split_into_buckets(local_sorted, lcps, splitters)
            received = exchange_buckets(
                comm, buckets, lcp_compression=compression, topology=route
            )
            return [(list(run), list(run_lcps)) for run, run_lcps in received]

        direct, plain = run_spmd(p, prog, args_per_rank=[(b, "direct") for b in blocks])
        routed, report = run_spmd(p, prog, args_per_rank=[(b, topology) for b in blocks])
        assert routed == direct
        assert report.origin_bytes_sent == plain.total_bytes_sent
        assert plain.forwarded_bytes == 0
        assert report.forwarded_bytes > 0

    @pytest.mark.parametrize("p", [4, 6])
    @pytest.mark.parametrize("compression", [False, True])
    @pytest.mark.parametrize("topology", ["direct", "hypercube"])
    def test_empty_buckets_every_topology(self, topology, compression, p):
        """Ranks with nothing to send still receive one (empty) run per source."""

        def prog(comm):
            buckets = [([], []) for _ in range(comm.size)]
            if comm.rank == 0:
                buckets[comm.size - 1] = ([b"only"], [0])
            received = exchange_buckets(
                comm, buckets, lcp_compression=compression, topology=topology
            )
            return [list(run) for run, _ in received]

        results, _ = run_spmd(p, prog)
        for rank, runs in enumerate(results):
            assert runs == [
                [b"only"] if (src, rank) == (0, p - 1) else [] for src in range(p)
            ]
