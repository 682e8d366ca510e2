"""Multikey Quicksort (Bentley & Sedgewick) with LCP output.

Section II-A uses Multikey Quicksort as the middle layer of the base-case
sorter: MSD radix sort recurses until the subproblem is smaller than
``sigma`` strings, then Multikey Quicksort takes over, which in turn hands
constant-size subproblems to LCP insertion sort.  The expected running time
is ``O(D + n log n)``.

The algorithm partitions the strings sharing a common prefix of length
``depth`` into three groups by comparing their character at position
``depth`` with a pivot character: ``<``, ``=`` and ``>``.  The ``=`` group is
recursed on with ``depth + 1`` (unless the pivot character is the implicit
0 terminator, i.e. the strings end at ``depth``), the other groups with the
same depth.

LCP bookkeeping: consecutive output strings coming from two *different*
groups differ exactly at position ``depth`` (they agree on the common prefix
and their ``depth``-th characters were compared against the pivot with
different outcomes), so the boundary LCP is ``depth``.  Inside a group the
recursion provides the LCPs.  Strings that are exhausted at ``depth``
(length == depth) are all equal, giving internal LCPs of ``depth``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.sequential import CharStats

from .lcp_insertion import lcp_insertion_sort

__all__ = ["multikey_quicksort"]

_INSERTION_THRESHOLD = 24
_END = -1  # virtual character for "string ends here" — smaller than any byte


def _char_at(s: bytes, depth: int) -> int:
    """Character of ``s`` at ``depth`` or the end-of-string sentinel."""
    return s[depth] if depth < len(s) else _END


def _median_of_three(strings: List[bytes], depth: int) -> int:
    """Pivot character chosen as the median of first/middle/last characters."""
    a = _char_at(strings[0], depth)
    b = _char_at(strings[len(strings) // 2], depth)
    c = _char_at(strings[-1], depth)
    # median of three without branches on equality subtleties
    if a > b:
        a, b = b, a
    if b > c:
        b = c
    return max(a, b)


def multikey_quicksort(
    strings: Sequence[bytes],
    depth: int = 0,
    stats: Optional[CharStats] = None,
    insertion_threshold: int = _INSERTION_THRESHOLD,
) -> Tuple[List[bytes], List[int]]:
    """Sort ``strings`` (sharing a common prefix of ``depth``) with LCP output.

    Returns ``(sorted_strings, lcps)``.  The first LCP entry is ``depth``
    (0 for a stand-alone top-level call), matching the convention of the
    other sequential sorters so results can be spliced.
    """
    out: List[bytes] = []
    lcps: List[int] = []
    _mkqs(list(strings), depth, out, lcps, stats, insertion_threshold)
    if lcps and depth == 0:
        lcps[0] = 0
    return out, lcps


def _mkqs(
    strings: List[bytes],
    depth: int,
    out: List[bytes],
    lcps: List[int],
    stats: Optional[CharStats],
    insertion_threshold: int,
) -> None:
    """Append the sorted ``strings`` (sharing ``depth`` characters) and their LCPs.

    An explicit work stack stands in for the recursion, so a long shared
    prefix (one ``=`` group per shared character) costs stack items, not
    Python frames.  Each item carries the LCP its first output string gets:
    the first non-empty group of a partition inherits its partition's, every
    later one differs from its predecessor at the partition's ``depth``.
    An ``ended`` item holds strings that all end at ``depth``: they are equal.
    """
    work: List[Tuple[List[bytes], int, int, bool]] = [(strings, depth, depth, False)]
    while work:
        strings, depth, boundary, ended = work.pop()
        n = len(strings)
        if n == 0:
            continue
        if n == 1 or ended:
            out.extend(strings)
            lcps.append(boundary)
            lcps.extend([depth] * (n - 1))
            continue
        if n <= insertion_threshold:
            sub, sub_lcps = lcp_insertion_sort(strings, depth, stats)
            sub_lcps[0] = boundary
            out.extend(sub)
            lcps.extend(sub_lcps)
            continue

        if stats is not None:
            stats.bucket_passes += 1

        pivot = _median_of_three(strings, depth)
        lt: List[bytes] = []
        eq: List[bytes] = []
        gt: List[bytes] = []
        for s in strings:
            c = _char_at(s, depth)
            if stats is not None:
                stats.add_chars(1 if c != _END else 0)
            if c < pivot:
                lt.append(s)
            elif c == pivot:
                eq.append(s)
            else:
                gt.append(s)

        # the ``=`` group goes one character deeper unless its pivot is the
        # end of the strings, which makes them equal
        at_end = pivot == _END
        groups = [
            item
            for item in (
                (lt, depth, False),
                (eq, depth if at_end else depth + 1, at_end),
                (gt, depth, False),
            )
            if item[0]
        ]
        # pushed last to first, so the first group is taken next; it alone
        # starts where the partition does
        for i in reversed(range(len(groups))):
            group, group_depth, group_ended = groups[i]
            work.append((group, group_depth, depth if i else boundary, group_ended))
