"""The scalar sequential sorters by name: the oracles of the local sort.

Every rank program sorts its block with
:func:`repro.sequential.vector_sort.vector_sort_with_lcp`.  The paper's
sorter as written (MSD radix sort with Multikey Quicksort and LCP insertion
sort base cases), its two layers on their own, an LCP mergesort and
Python's Timsort are each a second implementation of that one contract:
``(sorted list, LCP list)`` of any sequence of ``bytes``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sequential import CharStats

from .lcp_insertion import lcp_insertion_sort
from .lcp_mergesort import lcp_mergesort
from .msd_radix import msd_radix_sort
from .multikey_quicksort import multikey_quicksort

__all__ = ["SORTERS", "timsort_with_lcp"]


def timsort_with_lcp(
    strings: Sequence[bytes], stats: Optional[CharStats] = None
) -> Tuple[List[bytes], List[int]]:
    """Python's built-in Timsort on bytes, the LCP array computed afterwards."""
    out = sorted(strings)
    lcps = [0] * len(out)
    for i in range(1, len(out)):
        a, b = out[i - 1], out[i]
        limit = min(len(a), len(b))
        h = 0
        while h < limit and a[h] == b[h]:
            h += 1
        lcps[i] = h
        if stats is not None:
            stats.add_chars(h + (1 if h < limit else 0))
    return out, lcps


#: name -> ``sorter(strings, stats=None)``, returning ``(sorted, lcp_array)`` as lists
SORTERS: Dict[str, Callable[..., Tuple[List[bytes], List[int]]]] = {
    "msd_radix": lambda strings, stats=None: msd_radix_sort(strings, 0, stats),
    "multikey_quicksort": lambda strings, stats=None: multikey_quicksort(strings, 0, stats),
    "lcp_mergesort": lambda strings, stats=None: lcp_mergesort(strings, stats=stats),
    "lcp_insertion": lambda strings, stats=None: lcp_insertion_sort(strings, 0, stats),
    "timsort": timsort_with_lcp,
}
