"""LCP-aware insertion sort — the base case of the scalar sorter stack.

Section II-A: "Our implementation, in turn, uses LCP insertion sort as a base
case for constant size inputs.  This algorithm has complexity O(D + n^2)."

All strings handed to this routine are assumed to share a common prefix of
length ``depth`` (the caller — MSD radix sort or multikey quicksort — has
already established this), so no character below ``depth`` is ever inspected.
The output is the sorted list plus its LCP array in absolute character
positions; by convention the first LCP entry is ``depth`` (the known common
prefix) so enclosing sorters can splice sub-arrays together, and 0 when the
routine is used stand-alone at ``depth == 0``.

:func:`compare_from` is the one scalar string comparison of the oracles,
and :func:`add_comparison` charges it to a ``CharStats``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.sequential import CharStats

__all__ = ["add_comparison", "compare_from", "lcp_insertion_sort"]


def add_comparison(stats: CharStats, chars: int) -> None:
    """Charge ``stats`` one string comparison that inspected ``chars`` characters."""
    stats.string_comparisons += 1
    stats.chars_inspected += chars


def compare_from(
    a: bytes, b: bytes, start: int, stats: Optional[CharStats] = None
) -> Tuple[int, int]:
    """Compare ``a`` and ``b`` assuming their first ``start`` characters agree.

    Returns ``(cmp, lcp)`` where ``cmp`` is negative/zero/positive like a
    classic comparator and ``lcp`` is the absolute length of the longest
    common prefix of ``a`` and ``b``.  Only characters at positions
    ``>= start`` are inspected.
    """
    la, lb = len(a), len(b)
    limit = min(la, lb)
    i = start
    while i < limit and a[i] == b[i]:
        i += 1
    inspected = i - start + (1 if i < limit else 0)
    if stats is not None:
        add_comparison(stats, inspected)
    if i == limit:
        # one string is a prefix of the other (or they are equal)
        return (la - lb, i)
    return (a[i] - b[i], i)


def lcp_insertion_sort(
    strings: Sequence[bytes],
    depth: int = 0,
    stats: Optional[CharStats] = None,
) -> Tuple[List[bytes], List[int]]:
    """Sort ``strings`` by insertion using LCP-accelerated comparisons.

    The classic trick (Bingmann's thesis): while walking the new string
    leftwards through the already-sorted prefix we keep ``cur_lcp``, the LCP
    of the new string with the element it currently stands on.  Together with
    the stored LCP array of the sorted prefix most comparisons are decided
    without touching any characters; characters are only inspected when the
    two LCP values tie, which bounds the character work by ``O(D + n)``.
    """
    out: List[bytes] = []
    lcps: List[int] = []

    for s in strings:
        if not out:
            out.append(s)
            lcps.append(depth)
            continue

        j = len(out) - 1
        cmp, cur_lcp = compare_from(s, out[j], depth, stats)
        if cmp >= 0:
            out.append(s)
            lcps.append(cur_lcp)
            continue

        # Invariant of the walk: s < out[j] and cur_lcp == LCP(s, out[j]).
        left_lcp = depth
        while True:
            if j == 0:
                left_lcp = depth
                break
            prev_lcp = lcps[j]  # LCP(out[j-1], out[j])
            if prev_lcp > cur_lcp:
                # out[j-1] matches out[j] longer than s does and s < out[j],
                # hence s < out[j-1]; keep walking, LCP(s, out[j-1]) stays
                # cur_lcp because the mismatch position is unchanged.
                j -= 1
                continue
            if prev_lcp < cur_lcp:
                # out[j-1] diverges from out[j] before s does, so
                # out[j-1] < s; LCP(s, out[j-1]) equals prev_lcp.
                left_lcp = prev_lcp
                break
            # prev_lcp == cur_lcp: characters must decide.
            cmp, new_lcp = compare_from(s, out[j - 1], cur_lcp, stats)
            if cmp >= 0:
                left_lcp = new_lcp
                break
            cur_lcp = new_lcp
            j -= 1

        # Insert s at position j: its left-neighbour LCP is ``left_lcp`` and
        # the displaced element's LCP entry becomes LCP(s, out[j]) = cur_lcp.
        right_lcp = cur_lcp
        out.insert(j, s)
        lcps.insert(j, left_lcp)
        lcps[j + 1] = right_lcp

    if lcps and depth == 0:
        lcps[0] = 0
    return out, lcps
