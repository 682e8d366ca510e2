"""Vectorized local sorter: ``np.argsort`` over fixed-width key columns.

The distributed algorithms spend Step 1 sorting each PE's block.  When the
block arrives as a :class:`repro.strings.packed.PackedStringArray` (the hot
path of a packed run configuration), the whole sort can run inside numpy instead of
the per-string :mod:`repro.sequential.msd_radix` recursion:

* NUL-free blocks sort through one stable ``np.argsort`` over a padded
  ``|S{width}`` key view (NUL padding compares below every real character,
  so the padded order *is* ``bytes`` order) whose reordered rows are the
  sorted buffer (:func:`repro.strings.packed.sort_with_order`), unless
  that key matrix would hold more than 4 bytes per character: such a
  skewed block is ordered by ``sorted()`` and gathered per character;
* blocks containing NUL bytes sort through a stable ``np.lexsort`` over
  big-endian ``uint64`` key columns with the string length as the final
  tie-break — equal padded keys mean the shorter string is a prefix of the
  longer (the longer one's tail is all NULs up to the key width), so
  shorter-first is exactly ``bytes`` order;
* blocks past the guard rails (a string over 4096 bytes, over 256 in a
  NUL-bearing block, a key matrix over 128 MiB) fall back to the scalar
  sorter (:func:`vector_sort_with_lcp` returns ``None`` and
  :func:`repro.sequential.msd_radix.msd_radix_sort` runs its recursion).

The output pair — sorted packed array plus its ``int64`` LCP array — is
bit-identical to the scalar sorter's: the sorted sequence of a multiset is
unique and the LCP array is a pure function of it
(:func:`repro.strings.packed.packed_lcp_array` is pinned to the scalar
loop by ``tests/test_packed.py``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..strings.packed import (
    PackedStringArray,
    _LITTLE_ENDIAN,
    _fixed_width_ok,
    _MAX_FIXED_BYTES,
    fixed_width_keys,
    packed_lcp_array,
    sort_with_order,
    take,
)
from .stats import CharStats

__all__ = ["vector_sort_with_lcp"]

# NUL-bearing blocks build one uint64 column per 8 key bytes; beyond this
# width the column pile costs more passes than the scalar sorter.
_MAX_LEXSORT_WIDTH = 256


def _column_lexsort(arr: PackedStringArray, width: int) -> np.ndarray:
    """Stable argsort of a packed array via ``np.lexsort`` over key columns.

    Safe with embedded NUL bytes: keys are compared as big-endian ``uint64``
    chunks of the NUL-padded fixed-width view, with the string length as the
    last (least-significant) key resolving padded ties shorter-first.
    """
    n = len(arr)
    words = (width + 7) // 8
    raw = fixed_width_keys(arr, words * 8).view(np.uint8).reshape(n, words * 8)
    cols = raw.view(np.uint64)
    if _LITTLE_ENDIAN:
        cols = cols.byteswap()  # big-endian words compare like their bytes
    keys = [arr.lengths] + [cols[:, j] for j in range(words - 1, -1, -1)]
    return np.lexsort(keys).astype(np.int64)


def vector_sort_with_lcp(
    arr: PackedStringArray, stats: Optional[CharStats] = None
) -> Optional[Tuple[PackedStringArray, np.ndarray]]:
    """Sort a packed block; returns ``(sorted, lcp_array)`` or ``None``.

    ``None`` signals the long-string fallback: the block's key matrix would
    blow the fixed-width guard rails, so the caller should run the scalar
    sorter instead.  Otherwise the result is bit-identical to
    :func:`repro.sequential.msd_radix.msd_radix_sort` on the same strings
    (sorted order and LCP array are both content-determined).
    """
    n, width = len(arr), arr.max_len
    if width == 0:
        # no strings or all empty: already sorted, all LCPs 0, nothing inspected
        return arr, np.zeros(n, dtype=np.int64)
    if _fixed_width_ok(arr, width):
        srt, _ = sort_with_order(arr)
    elif width <= _MAX_LEXSORT_WIDTH and n * width <= _MAX_FIXED_BYTES:
        srt = take(arr, _column_lexsort(arr, width))
    else:
        return None
    out_lcps = packed_lcp_array(srt)
    if stats is not None:
        # every character enters the key material exactly once
        stats.add_chars(arr.num_chars)
        stats.bucket_passes += 1
    return srt, out_lcps
