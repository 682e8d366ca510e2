"""Sequential string sorting algorithms and LCP-aware mergers (Section II)."""

from .stats import CharStats
from .lcp_insertion import lcp_insertion_sort, compare_from
from .multikey_quicksort import multikey_quicksort
from .msd_radix import msd_radix_sort
from .losertree import multiway_merge
from .lcp_mergesort import lcp_merge, lcp_mergesort
from .api import SEQUENTIAL_SORTERS, sort_strings, sort_strings_with_lcp

__all__ = [
    "CharStats",
    "lcp_insertion_sort",
    "compare_from",
    "multikey_quicksort",
    "msd_radix_sort",
    "multiway_merge",
    "lcp_merge",
    "lcp_mergesort",
    "SEQUENTIAL_SORTERS",
    "sort_strings",
    "sort_strings_with_lcp",
]
