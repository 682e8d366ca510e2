"""MSD string radix sort with LCP-array output.

Section II-A: a variant of MSD String Radix Sort is used as the local
(sequential) sorter of every distributed algorithm.  The recursion considers
subproblems in which all strings share a common prefix of length ``depth``
and partitions them by their ``depth``-th character into ``sigma + 1``
buckets (one extra for strings that end at ``depth``).  The recursion stops
once a subproblem holds fewer than ``radix_threshold`` strings, which is then
handled by Multikey Quicksort (which itself bottoms out in LCP insertion
sort).  Together this gives ``O(D + n log sigma)`` character work.

LCP bookkeeping mirrors :mod:`repro.sequential.multikey_quicksort`: the
boundary between two consecutive non-empty buckets has LCP exactly ``depth``
(the strings agree on the common prefix and differ at position ``depth``),
strings in the end-of-string bucket are pairwise equal (LCP ``depth``), and
LCPs inside a character bucket come from the recursion at ``depth + 1``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..strings.packed import PackedStringArray
from .multikey_quicksort import multikey_quicksort
from .stats import CharStats
from .vector_sort import vector_sort_with_lcp

__all__ = ["msd_radix_sort"]

_RADIX_THRESHOLD = 128


def msd_radix_sort(
    strings: Sequence[bytes],
    depth: int = 0,
    stats: Optional[CharStats] = None,
    radix_threshold: int = _RADIX_THRESHOLD,
    insertion_threshold: int = 24,
) -> Tuple[List[bytes], List[int]]:
    """Sort ``strings`` and return ``(sorted_strings, lcp_array)``.

    This is the default local sorter used by the distributed algorithms (it
    matches the paper's choice of MSD radix sort with Multikey Quicksort and
    LCP insertion sort as base cases).  The produced LCP array comes at no
    extra asymptotic cost, exactly as described in the paper.

    A :class:`repro.strings.packed.PackedStringArray` input (at depth 0)
    is sorted by the vectorized
    :func:`repro.sequential.vector_sort.vector_sort_with_lcp` for every
    block, and comes back packed with an ``int64`` LCP array of
    bit-identical contents; a ``list`` input runs the scalar recursion
    below.
    """
    if depth == 0 and isinstance(strings, PackedStringArray):
        return vector_sort_with_lcp(strings, stats)
    out: List[bytes] = []
    lcps: List[int] = []
    _radix(list(strings), depth, out, lcps, stats, radix_threshold, insertion_threshold)
    if lcps and depth == 0:
        lcps[0] = 0
    return out, lcps


def _radix(
    strings: List[bytes],
    depth: int,
    out: List[bytes],
    lcps: List[int],
    stats: Optional[CharStats],
    radix_threshold: int,
    insertion_threshold: int,
) -> None:
    n = len(strings)
    if n == 0:
        return
    start0 = len(out)
    if n == 1:
        out.append(strings[0])
        lcps.append(depth)
        return
    if n < radix_threshold:
        sub, sub_lcps = multikey_quicksort(
            strings, depth, stats, insertion_threshold=insertion_threshold
        )
        sub_lcps[0] = depth
        out.extend(sub)
        lcps.extend(sub_lcps)
        return

    if stats is not None:
        stats.bucket_passes += 1
        stats.add_chars(sum(1 for s in strings if depth < len(s)))

    # bucket by the character at ``depth``; ``finished`` collects strings that
    # end here (their implicit 0 terminator sorts before every real character)
    finished: List[bytes] = []
    buckets: Dict[int, List[bytes]] = {}
    for s in strings:
        if depth >= len(s):
            finished.append(s)
        else:
            buckets.setdefault(s[depth], []).append(s)

    wrote_any = False
    if finished:
        # all strings in this bucket are equal (same prefix, same length)
        out.extend(finished)
        lcps.extend([depth] * len(finished))
        wrote_any = True

    for ch in sorted(buckets):
        start = len(out)
        _radix(
            buckets[ch], depth + 1, out, lcps, stats, radix_threshold, insertion_threshold
        )
        if wrote_any:
            # boundary with the previous bucket: differs at position ``depth``
            lcps[start] = depth
        wrote_any = True

    lcps[start0] = depth
