"""Micro-benchmarks of the sequential substrate (Section II components).

These are classic pytest-benchmark timings (not figure reproductions): the
local sorters and mergers are the per-PE building blocks whose character
efficiency underpins the distributed results, and the LCP-aware variants
should inspect far fewer characters than their atomic counterparts on inputs
with long common prefixes.
"""

from __future__ import annotations

import pytest

from repro.sequential import CharStats, multiway_merge
from repro.strings.generators import commoncrawl_like, dn_instance, random_strings
from repro.strings.lcp import lcp_array

from conftest import scaled
from oracles.losertree import lcp_multiway_merge
from oracles.sorters import SORTERS as ORACLES

N = scaled(3000)

INPUTS = {
    "random": random_strings(N, 4, 24, seed=1),
    "dn75": dn_instance(N, 0.75, length=100, seed=2),
    "web": commoncrawl_like(N, seed=3),
}

#: the scalar sorters timed, test oracles of the local sort
SORTERS = ("msd_radix", "multikey_quicksort", "lcp_mergesort", "timsort")


@pytest.mark.parametrize("input_name", sorted(INPUTS))
@pytest.mark.parametrize("sorter", SORTERS)
def test_sequential_sorter(benchmark, sorter, input_name):
    data = INPUTS[input_name]
    out, _ = benchmark(ORACLES[sorter], data)
    assert out == sorted(data)


def _runs(data, k):
    runs = [[] for _ in range(k)]
    for i, s in enumerate(data):
        runs[i % k].append(s)
    runs = [sorted(r) for r in runs]
    return runs, [lcp_array(r) for r in runs]


@pytest.mark.parametrize("input_name", sorted(INPUTS))
def test_lcp_losertree_merge(benchmark, input_name):
    runs, lcps = _runs(INPUTS[input_name], 8)
    merged, _ = benchmark(lcp_multiway_merge, runs, lcps)
    assert len(merged) == len(INPUTS[input_name])


@pytest.mark.parametrize("input_name", sorted(INPUTS))
def test_atomic_losertree_merge(benchmark, input_name):
    runs, _ = _runs(INPUTS[input_name], 8)
    merged = benchmark(multiway_merge, runs)
    assert len(merged) == len(INPUTS[input_name])


def test_lcp_merge_character_savings(benchmark):
    """The LCP loser tree inspects far fewer characters on high-LCP input."""
    data = dn_instance(scaled(2000), 0.9, length=120, seed=4)
    runs, lcps = _runs(data, 8)

    def run_both():
        atomic = CharStats()
        multiway_merge(runs, atomic)
        lcp_aware = CharStats()
        lcp_multiway_merge(runs, lcps, lcp_aware)
        return atomic.chars_inspected, lcp_aware.chars_inspected

    atomic_chars, lcp_chars = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert lcp_chars * 5 < atomic_chars
