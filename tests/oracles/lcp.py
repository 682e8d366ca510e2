"""Distinguishing prefixes by their definition, one string at a time.

``DIST(s) = max LCP(s, t) + 1`` over the other strings ``t``, capped at
``|s|``; in sorted order the ``t`` with the largest LCP is a neighbour.
``repro.strings.lcp.distinguishing_prefix_size`` (the vectorised ``D``)
and prefix doubling's approximations are held to it.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.strings.lcp import lcp

__all__ = ["distinguishing_prefixes"]


def distinguishing_prefixes(strings: Sequence[bytes]) -> List[int]:
    """``DIST(s)`` for every string of the input, in input order."""
    order = sorted(range(len(strings)), key=strings.__getitem__)
    out = [0] * len(strings)
    for pos, i in enumerate(order):
        s = strings[i]
        near = [
            lcp(s, strings[order[q]]) for q in (pos - 1, pos + 1) if 0 <= q < len(order)
        ]
        out[i] = min(len(s), max(near, default=0) + 1)
    return out
