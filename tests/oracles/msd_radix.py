"""MSD string radix sort with LCP-array output: the scalar oracle of the
local sort.

Section II-A: a variant of MSD String Radix Sort is used as the local
(sequential) sorter of every distributed algorithm.  The recursion considers
subproblems in which all strings share a common prefix of length ``depth``
and partitions them by their ``depth``-th character into ``sigma + 1``
buckets (one extra for strings that end at ``depth``).  The recursion stops
once a subproblem holds fewer than ``radix_threshold`` strings, which is then
handled by Multikey Quicksort (which itself bottoms out in LCP insertion
sort).  Together this gives ``O(D + n log sigma)`` character work.

Every rank program sorts with the packed kernels of
:func:`repro.sequential.vector_sort.vector_sort_with_lcp`; this list
recursion is the paper's sorter as written, and the kernels are held to it
bit for bit: the sorted sequence of a multiset is unique and the LCP array
is a pure function of it.

LCP bookkeeping mirrors :mod:`oracles.multikey_quicksort`: the
boundary between two consecutive non-empty buckets has LCP exactly ``depth``
(the strings agree on the common prefix and differ at position ``depth``),
strings in the end-of-string bucket are pairwise equal (LCP ``depth``), and
LCPs inside a character bucket come from the recursion at ``depth + 1``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.sequential import CharStats

from .multikey_quicksort import multikey_quicksort

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

    The paper's local sorter: MSD radix sort with Multikey Quicksort and
    LCP insertion sort as base cases.  The LCP array comes at no extra
    asymptotic cost, exactly as described in the paper.  Any sequence of
    ``bytes`` (a packed array too) is sorted as a list.
    """
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
    """Append the sorted ``strings`` (sharing ``depth`` characters) and their LCPs.

    An explicit work stack stands in for the recursion, so a long shared
    prefix costs stack items, not Python frames.  Each item carries the LCP
    its first output string gets: the first bucket of a pass inherits its
    pass's, every later one differs from its predecessor at the pass's
    ``depth``.
    """
    work: List[Tuple[List[bytes], int, int]] = [(strings, depth, depth)]
    while work:
        strings, depth, boundary = work.pop()
        n = len(strings)
        if n == 0:
            continue
        if n == 1:
            out.append(strings[0])
            lcps.append(boundary)
            continue
        if n < radix_threshold:
            sub, sub_lcps = multikey_quicksort(
                strings, depth, stats, insertion_threshold=insertion_threshold
            )
            sub_lcps[0] = boundary
            out.extend(sub)
            lcps.extend(sub_lcps)
            continue

        if stats is not None:
            stats.bucket_passes += 1
            stats.add_chars(sum(1 for s in strings if depth < len(s)))

        # bucket by the character at ``depth``; ``finished`` collects strings
        # that end here (their implicit 0 terminator sorts before every real
        # character)
        finished: List[bytes] = []
        buckets: Dict[int, List[bytes]] = {}
        for s in strings:
            if depth >= len(s):
                finished.append(s)
            else:
                buckets.setdefault(s[depth], []).append(s)

        if finished:
            # all strings in this bucket are equal (same prefix, same length)
            out.extend(finished)
            lcps.append(boundary)
            lcps.extend([depth] * (len(finished) - 1))
            boundary = depth

        # pushed last to first, so the first bucket is taken next; it alone
        # starts where the pass does
        chars = sorted(buckets)
        for ch in reversed(chars):
            work.append((buckets[ch], depth + 1, boundary if ch == chars[0] else depth))
