"""Longest-common-prefix (LCP) and distinguishing-prefix machinery.

Definitions follow Section II of the paper:

* ``LCP(s, t)`` is the length of the longest common prefix of ``s`` and ``t``.
* For a *sorted* string array ``S`` the LCP array is
  ``[bot, h_1, ..., h_{|S|-1}]`` with ``h_i = LCP(S[i-1], S[i])``; we encode the
  undefined first entry ``bot`` as 0.
* The distinguishing prefix length ``DIST(s)`` of a string ``s`` in a set
  ``S`` is the number of characters that must be inspected to distinguish it
  from every *other* string in ``S``:
  ``DIST(s) = max_{t != s} LCP(s, t) + 1`` (capped at ``|s|`` — once the whole
  string, including its implicit 0 terminator, has been read nothing more can
  be inspected).
* ``D = sum_s DIST(s)`` is the total distinguishing prefix size, the lower
  bound on the number of characters any string sorting algorithm must
  inspect.

The LCP array of a sorted set is enough to compute ``DIST`` for every string:
for sorted ``S`` the closest strings (by LCP) are the immediate neighbours, so
``DIST(S[i]) = max(h_i, h_{i+1}) + 1`` clipped to ``|S[i]|``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .packed import (
    PackedStringArray,
    packed_lcp_array,
    packed_sort,
)

__all__ = [
    "lcp_array",
    "distinguishing_prefix_size",
    "dn_ratio",
    "merge_lcp_statistics",
]


def lcp_array(strings: Sequence[bytes]) -> List[int]:
    """LCP array of a string sequence in its *given* order.

    ``out[0] == 0`` and ``out[i] == LCP(strings[i-1], strings[i])``.  The input
    does not need to be sorted (the distributed exchange step works with LCP
    arrays of arbitrarily ordered received sequences), but the common case is
    a sorted sequence.  The input is packed (a packed array as it is) and
    handed to the vectorized :func:`repro.strings.packed.packed_lcp_array`.
    """
    return packed_lcp_array(PackedStringArray.from_strings(strings)).tolist()


def _dist_of_sorted_packed(sorted_arr: PackedStringArray) -> np.ndarray:
    """``DIST`` per string of a sorted packed array (neighbour rule)."""
    h = packed_lcp_array(sorted_arr)
    left = h  # h[0] is already 0 ("no left neighbour")
    right = np.concatenate([h[1:], np.zeros(1, dtype=np.int64)])
    lens = sorted_arr.lengths
    d = np.minimum(np.maximum(left, right) + 1, lens)
    d[lens == 0] = 0
    return d


def _sorted_packed_of(strings: Sequence[bytes]) -> PackedStringArray:
    """A lexicographically sorted packed view of ``strings``.

    Containers that maintain their own cache (``StringSet``) are asked via
    the ``sorted_packed()`` hook, so repeated statistics calls from the
    bench harness reuse one sort instead of re-sorting the full input every
    time.  Any other sequence is packed (a packed array as it is) and sorted
    on the fly.
    """
    hook = getattr(strings, "sorted_packed", None)
    if callable(hook):
        return hook()
    return packed_sort(PackedStringArray.from_strings(strings))


def _total_chars(strings: Sequence[bytes]) -> int:
    num_chars = getattr(strings, "num_chars", None)
    if num_chars is not None:
        return int(num_chars)
    return sum(len(s) for s in strings)


def distinguishing_prefix_size(strings: Sequence[bytes]) -> int:
    """Total distinguishing prefix size ``D`` of the input.

    ``D`` is order-independent, so the cached sorted packed representation
    (when available) is used directly without tracking the permutation.
    """
    return int(_dist_of_sorted_packed(_sorted_packed_of(strings)).sum())


def dn_ratio(strings: Sequence[bytes]) -> float:
    """The ratio ``D / N`` used throughout the paper's evaluation."""
    total = _total_chars(strings)
    if total == 0:
        return 0.0
    return distinguishing_prefix_size(strings) / total


def merge_lcp_statistics(strings: Sequence[bytes]) -> Tuple[float, float]:
    """Return ``(average LCP, average LCP as a fraction of string length)``.

    These are the two statistics the paper reports for its real-world inputs
    (e.g. COMMONCRAWL: average LCP 23.9, 60 % of each line) and that the
    synthetic corpus generators are calibrated against.

    Passing a :class:`repro.strings.StringSet` reuses its cached sorted
    packed representation, so the bench harness can recompute the statistic
    as often as it likes for the price of one sort.
    """
    n = len(strings)
    if n < 2:
        return (0.0, 0.0)
    sorted_arr = _sorted_packed_of(strings)
    mean_lcp = float(packed_lcp_array(sorted_arr)[1:].sum()) / (n - 1)
    mean_len = sorted_arr.num_chars / n
    frac = mean_lcp / mean_len if mean_len > 0 else 0.0
    return (mean_lcp, frac)
