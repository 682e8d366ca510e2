"""Tests for the sampling-based D/N estimator and the ``auto`` algorithm."""

import pytest

from repro.dist.dn_estimator import DnEstimate, estimate_dn_ratio, recommend_algorithm
from repro.mpi import run_spmd
from repro.session import AutoSpec, Cluster
from repro.strings.generators import dn_instance, random_strings, suffix_instance
from repro.strings.lcp import dn_ratio

from inputs import duplicate_heavy


def _estimate(blocks, sample_per_pe=64, seed=0):
    def prog(comm, local):
        return estimate_dn_ratio(comm, local, sample_per_pe=sample_per_pe, seed=seed)

    results, report = run_spmd(len(blocks), prog, args_per_rank=[(b,) for b in blocks])
    return results, report


def _blocks(strings, p):
    n = len(strings)
    return [strings[r * n // p : (r + 1) * n // p] for r in range(p)]


class TestEstimateDnRatio:
    def test_all_ranks_agree(self):
        data = dn_instance(800, 0.5, length=60, seed=1)
        results, _ = _estimate(_blocks(data, 4))
        assert all(r.dn_ratio == results[0].dn_ratio for r in results)

    def test_totals_are_global(self):
        data = dn_instance(800, 0.5, length=60, seed=1)
        results, _ = _estimate(_blocks(data, 4))
        assert {r.num_strings for r in results} == {len(data)}
        assert {r.num_chars for r in results} == {sum(len(s) for s in data)}

    def test_estimate_tracks_true_ratio_for_dn_instances(self):
        for target in (0.1, 0.9):
            data = dn_instance(1000, target, length=80, seed=2)
            results, _ = _estimate(_blocks(data, 4), sample_per_pe=100)
            estimate = results[0].dn_ratio
            true = dn_ratio(data)
            assert abs(estimate - true) < 0.25

    def test_estimate_is_cheap(self):
        data = dn_instance(2000, 0.5, length=100, seed=3)
        results, report = _estimate(_blocks(data, 4), sample_per_pe=32)
        # the gossiped sample is tiny compared to the input
        assert report.total_bytes_sent < 0.2 * sum(len(s) for s in data)
        assert results[0].sample_size <= 4 * 32

    def test_empty_input(self):
        results, _ = _estimate([[], []])
        assert results[0].dn_ratio == 0.0
        assert results[0].sample_size == 0

    def test_empty_ranks_mixed_with_data(self):
        data = random_strings(300, 5, 20, seed=4)
        results, _ = _estimate([data, [], []])
        assert results[0].sample_size > 0

    def test_duplicate_heavy_input_estimates_high(self):
        data = duplicate_heavy(800, 10, 12, seed=5)
        results, _ = _estimate(_blocks(data, 4), sample_per_pe=80)
        assert results[0].dn_ratio > 0.5

    def test_suffix_input_estimates_low(self):
        data = suffix_instance(text_len=1000, alphabet_size=4, max_suffix_len=300, seed=6)
        results, _ = _estimate(_blocks(data, 4), sample_per_pe=80)
        assert results[0].dn_ratio < 0.2


class TestRecommendation:
    def test_threshold_behaviour(self):
        low = DnEstimate(0.1, 5, 50, 100, 1000)
        high = DnEstimate(0.9, 45, 50, 100, 1000)
        assert recommend_algorithm(low) == "pdms-golomb"
        assert recommend_algorithm(high) == "ms"
        assert low.recommends_prefix_doubling
        assert not high.recommends_prefix_doubling


class TestAutoAlgorithm:
    def test_auto_picks_pdms_for_low_dn(self):
        data = suffix_instance(text_len=900, alphabet_size=4, max_suffix_len=250, seed=7)
        res = Cluster(4).sort(data, AutoSpec(), check=True)
        assert res.extra["chosen_algorithm"] == "pdms-golomb"
        assert res.extra["estimated_dn"] < 0.5
        assert res.origins_per_pe is not None

    def test_auto_picks_ms_for_high_dn(self):
        data = duplicate_heavy(600, 8, 14, seed=8)
        res = Cluster(4).sort(data, AutoSpec(), check=True)
        assert res.extra["chosen_algorithm"] == "ms"
        assert res.sorted_strings == sorted(data)

    def test_auto_result_is_correct_either_way(self):
        data = dn_instance(500, 0.4, length=50, seed=9)
        res = Cluster(3).sort(data, AutoSpec(), check=True)
        assert res.num_strings == 500
        assert res.extra["chosen_algorithm"] in ("ms", "pdms-golomb")
