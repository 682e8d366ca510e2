"""Scalar reference loops of the input distribution and the partitioning.

``repro.dist.api.distribute_strings`` and ``repro.dist.partition`` run
vectorised bodies over packed arrays.  The per-string loops below are what
those bodies replaced, kept as the oracle the property tests pin them
against:

* :func:`distribute` — the string-count split and the greedy
  chars-balancing loop of ``distribute_strings``;
* :func:`bucket_boundaries` — the ``bisect`` loop of the splitter
  partition;
* :func:`character_based_samples` — the (optionally weighted) ``bisect``
  sampling loop, the only reference for PDMS's weighted case.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import List, Optional, Sequence

__all__ = ["distribute", "bucket_boundaries", "character_based_samples"]


def distribute(strings: List[bytes], num_pes: int, by: str) -> List[List[bytes]]:
    """``num_pes`` contiguous blocks balancing string counts or characters."""
    n = len(strings)
    if by == "strings":
        base, rem = divmod(n, num_pes)
        blocks: List[List[bytes]] = []
        pos = 0
        for r in range(num_pes):
            size = base + (1 if r < rem else 0)
            blocks.append(strings[pos : pos + size])
            pos += size
        return blocks
    total = sum(len(s) for s in strings)
    if total == 0:
        # no character mass to balance (e.g. all-empty strings):
        # balancing counts is the only meaningful criterion left
        return distribute(strings, num_pes, by="strings")
    blocks = [[] for _ in range(num_pes)]
    cum = 0
    block = 0
    for s in strings:
        blocks[block].append(s)
        cum += len(s)
        while block < num_pes - 1 and cum * num_pes >= (block + 1) * total:
            block += 1
    return blocks


def bucket_boundaries(
    sorted_strings: Sequence[bytes], splitters: Sequence[bytes]
) -> List[int]:
    """Bucket ``j`` holds ``(f_{j-1}, f_j]``: ties go to the lower bucket."""
    bounds = [0]
    for f in splitters:
        bounds.append(bisect_right(sorted_strings, f, lo=bounds[-1]))
    bounds.append(len(sorted_strings))
    return bounds


def character_based_samples(
    sorted_strings: Sequence[bytes],
    v: int,
    weights: Optional[Sequence[int]] = None,
) -> List[bytes]:
    """``v`` samples at equidistant positions of the (weighted) mass."""
    n = len(sorted_strings)
    if n == 0 or v <= 0:
        return []
    if weights is None:
        weights = [len(s) for s in sorted_strings]
    total = sum(weights)
    if total <= 0:
        # all-zero weights: string-based sampling
        return [
            sorted_strings[max(0, ((k + 1) * n) // (v + 1) - 1)] for k in range(v)
        ]
    cumulative = list(accumulate(weights))
    out: List[bytes] = []
    for k in range(v):
        target = ((k + 1) * total) // (v + 1)
        idx = min(n - 1, bisect_right(cumulative, target))
        out.append(sorted_strings[idx])
    return out
