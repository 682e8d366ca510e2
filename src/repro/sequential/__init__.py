"""Per-PE string sorting and merging (Section II).

The local sort is :func:`repro.sequential.vector_sort.vector_sort_with_lcp`;
the paper's scalar sorters are its test oracles (``tests/oracles/``).
"""

from .stats import CharStats
from .losertree import multiway_merge
from .vector_sort import sort_strings_with_lcp

__all__ = [
    "CharStats",
    "multiway_merge",
    "sort_strings_with_lcp",
]
