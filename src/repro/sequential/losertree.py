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
:func:`multiway_merge` plays it as one flat loop, the oracle of the word
radix merge that MS-simple and FKmerge run; the scalar ``LoserTree`` it is
held to, one ``pop()`` at a time, is one too (``tests/oracles/losertree.py``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .stats import CharStats

__all__ = ["multiway_merge"]


def multiway_merge(
    runs: Sequence[Sequence[bytes]], stats: Optional[CharStats] = None
) -> List[bytes]:
    """Merge sorted runs into one sorted list with the atomic loser tree.

    Plays the tournament of the scalar ``LoserTree`` (same matches and tie-breaks:
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
