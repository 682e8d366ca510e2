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

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .packed import (
    PackedStringArray,
    packed_lcp_array,
    packed_sort,
    sort_with_order,
)

__all__ = [
    "lcp",
    "lcp_array",
    "lcp_array_of_sorted",
    "verify_lcp_array",
    "distinguishing_prefixes",
    "distinguishing_prefix_size",
    "dn_ratio",
    "merge_lcp_statistics",
    "lcp_compress_lengths",
]


def lcp(a: bytes, b: bytes) -> int:
    """Length of the longest common prefix of ``a`` and ``b``.

    A simple character loop; used on the hot path of the sequential sorters,
    so it fast-paths the fully-equal-prefix case with slicing comparisons.
    """
    n = min(len(a), len(b))
    if a[:n] == b[:n]:
        return n
    lo, hi = 0, n
    # binary search over the first mismatch: a[:mid] == b[:mid] is monotone
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


# past this many strings the one-time packing cost is repaid many times over
# by the broadcasted block comparisons of the vectorized kernel
_PACKED_LCP_THRESHOLD = 64


def lcp_array(strings: Sequence[bytes]) -> List[int]:
    """LCP array of a string sequence in its *given* order.

    ``out[0] == 0`` and ``out[i] == lcp(strings[i-1], strings[i])``.  The input
    does not need to be sorted (the distributed exchange step works with LCP
    arrays of arbitrarily ordered received sequences), but the common case is
    a sorted sequence.

    Packed inputs — and any large enough ``bytes`` sequence — are
    dispatched to the vectorized
    :func:`repro.strings.packed.packed_lcp_array`; the values are identical.
    """
    if isinstance(strings, PackedStringArray):
        return packed_lcp_array(strings).tolist()
    if len(strings) >= _PACKED_LCP_THRESHOLD:
        try:
            packed = PackedStringArray.from_strings(strings)
        except TypeError:
            pass  # non-bytes elements: fall through to the scalar loop
        else:
            return packed_lcp_array(packed).tolist()
    out = [0] * len(strings)
    for i in range(1, len(strings)):
        out[i] = lcp(strings[i - 1], strings[i])
    return out


def lcp_array_of_sorted(strings: Sequence[bytes]) -> List[int]:
    """LCP array of a sorted sequence; raises if the input is not sorted.

    Useful in tests and checkers where silently accepting unsorted input
    would hide bugs.
    """
    for i in range(1, len(strings)):
        if strings[i - 1] > strings[i]:
            raise ValueError(
                f"input not sorted at position {i}: {strings[i-1]!r} > {strings[i]!r}"
            )
    return lcp_array(strings)


def verify_lcp_array(strings: Sequence[bytes], lcps: Sequence[int]) -> bool:
    """Check that ``lcps`` is the correct LCP array for ``strings``."""
    if len(strings) != len(lcps):
        return False
    if strings and lcps and lcps[0] != 0:
        return False
    for i in range(1, len(strings)):
        if lcps[i] != lcp(strings[i - 1], strings[i]):
            return False
    return True


def distinguishing_prefixes(strings: Sequence[bytes]) -> List[int]:
    """``DIST(s)`` for every string of the input, in input order.

    The input need not be sorted; internally the strings are sorted (keeping
    track of their original positions) and the neighbour rule
    ``DIST = max(h_i, h_{i+1}) + 1`` is applied, clipped to the string length.

    Exact duplicates have ``DIST`` equal to their full length (they can never
    be distinguished by a proper prefix; inspecting the terminating 0 — i.e.
    the entire string — is required, matching the paper's convention that the
    0 terminator is part of the string).
    """
    n = len(strings)
    if n == 0:
        return []
    if n == 1:
        s0 = strings[0]
        # a single string is distinguished by its first character (or by its
        # terminator if it is empty)
        return [min(1, len(s0)) if s0 else 0]

    try:
        arr = PackedStringArray.from_strings(strings)
    except TypeError:
        pass  # non-bytes elements: fall through to the scalar loop
    else:
        sorted_arr, order = sort_with_order(arr)
        out_np = np.empty(n, dtype=np.int64)
        out_np[order] = _dist_of_sorted_packed(sorted_arr)
        return out_np.tolist()

    order = sorted(range(n), key=lambda i: strings[i])
    sorted_strings = [strings[i] for i in order]
    h = lcp_array(sorted_strings)

    dist_sorted = [0] * n
    for i in range(n):
        left = h[i] if i > 0 else 0
        right = h[i + 1] if i + 1 < n else 0
        d = max(left, right) + 1
        dist_sorted[i] = min(d, len(sorted_strings[i]))
        if len(sorted_strings[i]) == 0:
            dist_sorted[i] = 0

    out = [0] * n
    for pos, original in enumerate(order):
        out[original] = dist_sorted[pos]
    return out


def _dist_of_sorted_packed(sorted_arr: PackedStringArray) -> np.ndarray:
    """``DIST`` per string of a sorted packed array (neighbour rule)."""
    h = packed_lcp_array(sorted_arr)
    left = h  # h[0] is already 0 ("no left neighbour")
    right = np.concatenate([h[1:], np.zeros(1, dtype=np.int64)])
    lens = sorted_arr.lengths
    d = np.minimum(np.maximum(left, right) + 1, lens)
    d[lens == 0] = 0
    return d


def _sorted_packed_of(strings: Sequence[bytes]) -> Optional[PackedStringArray]:
    """A lexicographically sorted packed view of ``strings``, or ``None``.

    Containers that maintain their own cache (``StringSet``) are asked via
    the ``sorted_packed()`` hook, so repeated statistics calls from the
    bench harness reuse one sort instead of re-sorting the full input every
    time.  Plain sequences are packed and sorted on the fly; ``None`` means
    they hold something other than bytes.
    """
    if isinstance(strings, PackedStringArray):
        return packed_sort(strings)
    hook = getattr(strings, "sorted_packed", None)
    if callable(hook):
        return hook()
    try:
        return packed_sort(PackedStringArray.from_strings(strings))
    except TypeError:
        return None


def _total_chars(strings: Sequence[bytes]) -> int:
    if isinstance(strings, PackedStringArray):
        return strings.num_chars
    num_chars = getattr(strings, "num_chars", None)
    if num_chars is not None:
        return int(num_chars)
    return sum(len(s) for s in strings)


def distinguishing_prefix_size(strings: Sequence[bytes]) -> int:
    """Total distinguishing prefix size ``D`` of the input.

    ``D`` is order-independent, so the cached sorted packed representation
    (when available) is used directly without tracking the permutation.
    """
    sorted_arr = _sorted_packed_of(strings)
    if sorted_arr is not None:
        if len(sorted_arr) == 0:
            return 0
        if len(sorted_arr) == 1:
            return min(1, sorted_arr.num_chars)
        return int(_dist_of_sorted_packed(sorted_arr).sum())
    return sum(distinguishing_prefixes(strings))


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
    if sorted_arr is not None:
        h = packed_lcp_array(sorted_arr)
        mean_lcp = float(h[1:].sum()) / (n - 1)
        mean_len = sorted_arr.num_chars / n
    else:
        srt = sorted(strings)
        h = lcp_array(srt)
        mean_lcp = sum(h[1:]) / (n - 1)
        mean_len = sum(len(s) for s in strings) / n
    frac = mean_lcp / mean_len if mean_len > 0 else 0.0
    return (mean_lcp, frac)


def lcp_compress_lengths(strings: Sequence[bytes], lcps: Sequence[int]) -> int:
    """Number of characters remaining after LCP compression.

    With LCP compression (Section V, Step 3) each string transmits only its
    suffix past the LCP with the *previous* string in the same message; the
    first string of a message is always sent in full.  The return value is
    ``sum(len(s_i) - h_i)`` which the exchange step uses for byte accounting.
    """
    if len(strings) != len(lcps):
        raise ValueError("strings and lcps must have equal length")
    if isinstance(strings, PackedStringArray):
        lens = strings.lengths
        clipped = np.minimum(np.asarray(lcps, dtype=np.int64), lens)
        return int((lens - clipped).sum())
    total = 0
    for s, h in zip(strings, lcps):
        clipped = min(h, len(s))
        total += len(s) - clipped
    return total
