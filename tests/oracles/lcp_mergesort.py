"""Binary LCP-merging (Ng & Kakehi) and LCP mergesort.

The LCP loser tree of Section II-B generalises this binary technique.  The
binary merger is a test oracle:

* a second opinion on the loser tree (two independent implementations of
  the same contract), and
* the core of :func:`lcp_mergesort`, a scalar sorter with the
  comparison-based optimum of ``O(D + n log n)`` character work.

Merging rule for two sorted runs ``A`` and ``B`` whose fronts carry LCP
values ``la = LCP(A[i], last_output)`` and ``lb = LCP(B[j], last_output)``:

* ``la > lb``  →  ``A[i] < B[j]``; output ``A[i]``; ``LCP(A[i], B[j]) = lb``
  so ``lb`` stays valid relative to the new last output.
* ``la < lb``  →  symmetric.
* ``la == lb`` →  compare characters from offset ``la``; the loser's LCP
  relative to the new last output is the mismatch position.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.sequential import CharStats

from .lcp_insertion import compare_from

__all__ = ["lcp_merge", "lcp_mergesort"]


def lcp_merge(
    a: Sequence[bytes],
    a_lcps: Sequence[int],
    b: Sequence[bytes],
    b_lcps: Sequence[int],
    stats: Optional[CharStats] = None,
) -> Tuple[List[bytes], List[int]]:
    """Merge two sorted runs with LCP arrays into one sorted run + LCP array."""
    if len(a) != len(a_lcps) or len(b) != len(b_lcps):
        raise ValueError("runs and their LCP arrays must have matching lengths")

    out: List[bytes] = []
    out_lcps: List[int] = []
    i = j = 0
    # LCP of the current front of each run w.r.t. the last output string.
    la = 0
    lb = 0

    while i < len(a) and j < len(b):
        if la > lb:
            take_a = True
            boundary = lb  # LCP(a[i], b[j])
        elif lb > la:
            take_a = False
            boundary = la
        else:
            cmp, h = compare_from(a[i], b[j], la, stats)
            take_a = cmp <= 0
            boundary = h

        if take_a:
            out.append(a[i])
            out_lcps.append(la)
            i += 1
            # the loser b[j] now relates to the new last output a[i-1]
            lb = boundary
            la = a_lcps[i] if i < len(a) else 0
        else:
            out.append(b[j])
            out_lcps.append(lb)
            j += 1
            la = boundary
            lb = b_lcps[j] if j < len(b) else 0

    while i < len(a):
        out.append(a[i])
        out_lcps.append(la)
        i += 1
        la = a_lcps[i] if i < len(a) else 0
    while j < len(b):
        out.append(b[j])
        out_lcps.append(lb)
        j += 1
        lb = b_lcps[j] if j < len(b) else 0

    if out_lcps:
        out_lcps[0] = 0
    return out, out_lcps


def lcp_mergesort(
    strings: Sequence[bytes], stats: Optional[CharStats] = None
) -> Tuple[List[bytes], List[int]]:
    """Bottom-up LCP mergesort; ``O(D + n log n)`` character work."""
    n = len(strings)
    if n == 0:
        return [], []
    runs: List[Tuple[List[bytes], List[int]]] = [([s], [0]) for s in strings]
    while len(runs) > 1:
        merged: List[Tuple[List[bytes], List[int]]] = []
        for k in range(0, len(runs) - 1, 2):
            ra, ha = runs[k]
            rb, hb = runs[k + 1]
            merged.append(lcp_merge(ra, ha, rb, hb, stats))
        if len(runs) % 2 == 1:
            merged.append(runs[-1])
        runs = merged
    out, lcps = runs[0]
    if lcps:
        lcps[0] = 0
    return out, lcps
