"""Atomic (non-LCP-aware) K-way loser tree for merging sorted string runs.

Section II-B describes the loser tree (tournament tree): a binary tree with
``K`` leaves, one per sorted input run.  Each leaf holds the current element
of its run; internal nodes store the *loser* of the comparison of the two
elements passed up from below and forward the *winner*.  The element at the
root is the globally smallest; outputting it advances the corresponding run
and repairs the tree along the leaf-to-root path in ``O(log K)`` comparisons.

This atomic variant compares whole strings (it is what Fischer & Kurpicz's
``FKmerge`` baseline uses, Section II-C) and therefore rescans common
prefixes over and over — which is exactly the inefficiency the LCP-aware tree
in :mod:`repro.sequential.lcp_losertree` removes.  The implementation counts
inspected characters so benchmarks can demonstrate the difference:
:func:`multiway_merge` as one flat loop (what MS-simple and FKmerge run),
:class:`LoserTree` one ``pop()`` at a time as the scalar oracle of it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .stats import CharStats

__all__ = ["LoserTree", "multiway_merge"]


def _compare_count(a: bytes, b: bytes, stats: Optional[CharStats]) -> int:
    """Three-way compare of two strings, counting inspected characters."""
    if stats is not None:
        limit = min(len(a), len(b))
        i = 0
        while i < limit and a[i] == b[i]:
            i += 1
        stats.add_comparison(i + (1 if i < limit else 0))
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


class LoserTree:
    """K-way tournament tree over sorted runs of byte strings.

    Runs are given as lists; exhausted runs are represented by ``None``
    sentinels that compare larger than every string.  ``K`` is padded to the
    next power of two with permanently exhausted runs.
    """

    def __init__(self, runs: Sequence[Sequence[bytes]], stats: Optional[CharStats] = None):
        self.stats = stats
        k = max(1, len(runs))
        size = 1
        while size < k:
            size *= 2
        self._k = size
        self._runs: List[Sequence[bytes]] = [list(r) for r in runs] + [
            [] for _ in range(size - len(runs))
        ]
        self._pos = [0] * size
        # current[i] is the front string of run i or None when exhausted
        self._current: List[Optional[bytes]] = [
            self._runs[i][0] if self._runs[i] else None for i in range(size)
        ]
        # losers[1..size-1] store run indices; losers[0] stores the overall winner
        self._losers = [0] * size
        self._init_tree()

    # -- internal ----------------------------------------------------------------
    def _less(self, i: int, j: int) -> bool:
        """Is the current element of run ``i`` smaller than that of run ``j``?

        Ties are broken by run index, which keeps the merge stable.
        """
        a, b = self._current[i], self._current[j]
        if a is None:
            return False
        if b is None:
            return True
        c = _compare_count(a, b, self.stats)
        if c != 0:
            return c < 0
        return i < j

    def _init_tree(self) -> None:
        size = self._k
        # winner[x] for the sub-tournament rooted at internal node x
        winners = [0] * (2 * size)
        for i in range(size):
            winners[size + i] = i
        for x in range(size - 1, 0, -1):
            left, right = winners[2 * x], winners[2 * x + 1]
            if self._less(left, right):
                winners[x] = left
                self._losers[x] = right
            else:
                winners[x] = right
                self._losers[x] = left
        self._losers[0] = winners[1]

    # -- public API -----------------------------------------------------------------
    def empty(self) -> bool:
        """True when every run is exhausted."""
        return self._current[self._losers[0]] is None

    def peek(self) -> Optional[bytes]:
        """Smallest remaining string without removing it (None when empty)."""
        return self._current[self._losers[0]]

    def pop(self) -> bytes:
        """Remove and return the smallest remaining string."""
        winner = self._losers[0]
        value = self._current[winner]
        if value is None:
            raise IndexError("pop from an empty LoserTree")

        # advance the winning run
        self._pos[winner] += 1
        run = self._runs[winner]
        self._current[winner] = (
            run[self._pos[winner]] if self._pos[winner] < len(run) else None
        )

        # replay the path from the winner's leaf to the root
        node = (self._k + winner) // 2
        cand = winner
        while node >= 1:
            other = self._losers[node]
            if self._less(other, cand):
                self._losers[node] = cand
                cand = other
            node //= 2
        self._losers[0] = cand
        return value


def multiway_merge(
    runs: Sequence[Sequence[bytes]], stats: Optional[CharStats] = None
) -> List[bytes]:
    """Merge sorted runs into one sorted list with the atomic loser tree.

    Plays the tournament of :class:`LoserTree` (same matches and tie-breaks:
    strings and ``stats`` are bit-identical) as one flat loop: the runs back
    to back in ``flat``, run ``r`` at ``pos[r]`` of ``end[r]``, its string in
    ``cur[r]`` (``None``: exhausted, loses to every string).  A leaf-to-root
    walk seats a run (the first ``k`` steps; resting at the first free node
    pairs subtree winners as a bottom-up build does) or replays the path of
    the run just emitted.
    """
    k = 1
    while k < len(runs):
        k *= 2
    flat: List[bytes] = []
    bounds = [0]
    for run in runs:
        flat.extend(run)
        bounds.append(len(flat))
    total = len(flat)
    bounds += [total] * (k - len(runs))
    pos, end = bounds[:-1], bounds[1:]
    cur = [flat[p] if p < e else None for p, e in zip(pos, end)]
    loser = [-1] * k  # run waiting at each node; -1: nobody yet
    comparisons = chars = 0
    out: List[bytes] = []
    for step in range(-k, total):
        if step < 0:
            w = k + step  # seat the runs left to right
        else:
            out.append(cur[w])
            p = pos[w] = pos[w] + 1
            cur[w] = flat[p] if p < end[w] else None
        b = cur[w]
        node = (k + w) >> 1
        while node:
            x = loser[node]
            if x < 0:
                loser[node] = w
                break
            a = cur[x]
            if a is not None:  # else the waiting run is exhausted: w passes
                x_wins = b is None
                if b is not None:
                    len_a, len_b = len(a), len(b)
                    limit = len_a if len_a < len_b else len_b
                    i = 0
                    while i < limit and a[i] == b[i]:
                        i += 1
                    comparisons += 1
                    chars += i + (i < limit)
                    # the smaller character, else the shorter string, else the lower run
                    x_wins = a[i] < b[i] if i < limit else (len_a, x) < (len_b, w)
                if x_wins:
                    loser[node], w, b = w, x, a
            node >>= 1
    if stats is not None:
        stats.string_comparisons += comparisons
        stats.chars_inspected += chars
    return out
