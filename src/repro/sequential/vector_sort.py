"""Vectorized local sorter: two numpy kernels, picked per block.

The distributed algorithms spend Step 1 sorting each PE's block, which
arrives as a :class:`repro.strings.packed.PackedStringArray`.  Two kernels
sort it without per-string Python work, and both return the sorted packed
array plus its ``int64`` LCP array:

* the **argsort** kernel (:func:`repro.strings.packed.sort_with_order`,
  then :func:`repro.strings.packed.packed_lcp_array`): one ``np.argsort``
  over a NUL-padded ``|S{max_len}`` key view, whose reordered rows are the
  sorted buffer.  Each of its ~``n log n`` comparisons re-reads the prefix
  the two strings share;
* the **word radix** kernel (:func:`_word_radix`): MSD radix sort, the
  paper's local sorter (Sec. II-A), on big-endian ``uint64`` words.  Pass
  ``k`` reads word ``k`` only of the strings still tied with a neighbour,
  sorts them within their tied groups, and reads each LCP off the first
  differing byte of the two words that split a group.  So it reads every
  string at most one word past its distinguishing prefix.  It has no width
  limit and is NUL-safe: a string that ends inside a word sorts before the
  strings whose word ties with its NUL padding.  It starts at a given
  depth that every string shares and returns the string bytes of the words
  it read, which both merges charge.  MS's merge
  (:func:`repro.sequential.lcp_losertree.lcp_multiway_merge_packed`) starts
  it at the prefix its runs' LCP arrays prove; MS-simple's and FKmerge's
  (:func:`repro.dist.api.merge_sort`) and the local sort start it at 0.

:func:`_takes_radix` picks the kernel by a pure function of the block, read
in one vectorised pass.  The radix takes every block past the argsort's
guard rails (a NUL byte, a string over 4096 bytes, a key matrix over
128 MiB), and blocks of at least 1024 strings whose first words are all
equal, i.e. whose common prefix is 8 bytes or more.  Smaller blocks, and
blocks whose strings part in their first word, stay on the argsort, which
is faster there.

Either kernel's output is bit-identical to the paper's scalar sorter, MSD
radix sort with Multikey Quicksort and LCP insertion base cases on a list,
which is the test oracle ``tests/oracles/msd_radix.py``: the sorted
sequence of a multiset is unique and the LCP array is a pure function of it.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..strings.packed import (
    PackedStringArray,
    _fixed_width_ok,
    byte_windows,
    packed_lcp_array,
    reorder,
    sort_with_order,
)
from .stats import CharStats

__all__ = ["sort_strings_with_lcp", "vector_sort_with_lcp"]

# smaller blocks sort faster on the argsort, shared prefix or not
_RADIX_MIN_STRINGS = 1024

# _HEAD[c]: the mask of a big-endian word's first c bytes
_HEAD = np.array([((1 << 8 * c) - 1) << 8 * (8 - c) for c in range(9)], dtype=np.uint64)
# a word XOR below 256**i leaves its first 8 - i bytes equal
_BYTE_STEPS = np.array([1 << 8 * i for i in range(8)], dtype=np.uint64)


def vector_sort_with_lcp(
    arr: PackedStringArray, stats: Optional[CharStats] = None
) -> Tuple[PackedStringArray, np.ndarray]:
    """Sort a packed block; returns ``(sorted, lcp_array)``.

    The result is bit-identical to the scalar MSD radix oracle
    (``tests/oracles/msd_radix.py``) on the same strings as a list (sorted
    order and LCP array are both content-determined), whichever kernel
    :func:`_takes_radix` picks.  ``stats`` is charged
    every character once and one bucket pass, whatever the kernel.
    """
    n = len(arr)
    if arr.max_len == 0:
        # no strings or all empty: already sorted, all LCPs 0, nothing inspected
        return arr, np.zeros(n, dtype=np.int64)
    if _takes_radix(arr):
        srt, lcps, _ = _word_radix(arr)
    else:
        srt = sort_with_order(arr)[0]
        lcps = packed_lcp_array(srt)
    if stats is not None:
        stats.add_chars(arr.num_chars)
        stats.bucket_passes += 1
    return srt, lcps


def sort_strings_with_lcp(
    strings: Union[PackedStringArray, Sequence[bytes]],
    algorithm: str = "msd_radix",
    stats: Optional[CharStats] = None,
) -> Tuple[PackedStringArray, np.ndarray]:
    """Sort ``strings`` (packed once, no copy if already packed) with
    :func:`vector_sort_with_lcp`; returns ``(sorted, lcp_array)``.

    ``"msd_radix"`` is the one ``algorithm``: the name stays because callers
    that resolve the local sort by name pass ``SortSpec.local_sorter``.
    """
    if algorithm != "msd_radix":
        raise KeyError(f"unknown sequential sorter {algorithm!r}; available: ['msd_radix']")
    return vector_sort_with_lcp(PackedStringArray.from_strings(strings), stats)


def _takes_radix(arr: PackedStringArray) -> bool:
    """Whether the word radix sorts ``arr``: every block past the argsort's
    guard rails, and blocks of at least 1024 strings that all share their
    first word."""
    if not _fixed_width_ok(arr, arr.max_len):
        return True
    if len(arr) < _RADIX_MIN_STRINGS:
        return False
    first = _words(arr.buffer, arr.offsets[:-1], arr.lengths)
    return bool((first == first[0]).all())


def _words(buf: np.ndarray, pos: np.ndarray, rem: np.ndarray) -> np.ndarray:
    """The big-endian ``uint64`` word of ``buf`` at each position of ``pos``,
    NUL past the ``rem >= 0`` bytes its string has left there.

    The words are gathered from :func:`repro.strings.packed.byte_windows`,
    so nothing is copied but the words.  A word that would run past the
    buffer's end is read where it still fits and shifted into place; the
    bytes it lacks lie past its string's end.
    """
    if buf.size < 8:
        buf = np.concatenate([buf, np.zeros(8 - buf.size, dtype=np.uint8)])
    last = buf.size - 8
    if int(pos.max()) <= last:
        w = byte_windows(buf, 8, ">u8")[pos].astype(np.uint64)
    else:
        at = np.minimum(pos, last)
        w = byte_windows(buf, 8, ">u8")[at].astype(np.uint64)
        w <<= ((pos - at) * 8).astype(np.uint64)  # 64 only where rem == 0
    if int(rem.min()) < 8:
        w &= _HEAD[np.minimum(rem, 8)]
    return w


def _word_radix(
    arr: PackedStringArray, depth: int = 0
) -> Tuple[PackedStringArray, np.ndarray, int]:
    """MSD radix sort of ``arr`` on big-endian ``uint64`` words, from byte
    ``depth`` on, which every string must share; returns ``(sorted,
    lcp_array, bytes_read)``, ``bytes_read`` the string bytes of every word
    gathered.

    ``order`` holds the strings in sorted order so far and ``act`` the
    slots of ``order`` still tied with a neighbour on every word read, in
    groups of equal prefix (``grp``, ascending; ``None`` for one group).
    Each pass reads the next word of the tied strings and sorts them by
    ``(group, word, bytes left)``: one sort by word, then numpy's stable
    sort by group id (a radix sort while the id fits 16 bits) when there is
    more than one group.  The pairs of a group that the pass splits get
    their LCP from the first differing byte of their words, clipped to
    where either string ends; pairs that still tie, on a word both strings
    fill, form the next pass's groups, numbered by one ``cumsum``.
    """
    n = len(arr)
    buf, starts, lens = arr.buffer, arr.offsets[:-1], arr.lengths
    nul = arr.has_zero_byte()
    order = np.arange(n, dtype=np.int64)
    lcps = np.zeros(n, dtype=np.int64)
    act = order.copy()
    ids, pos, rem = order.copy(), starts + depth, lens - depth  # of the slots in act
    grp: Optional[np.ndarray] = None
    read = 0
    # depth: where the word read by this pass starts in each string
    while act.size > 1:
        w = _words(buf, pos, rem)
        if int(rem.min()) >= 8 and (w == w[0]).all():
            read += 8 * act.size
            depth += 8  # every group ties again: nothing to sort or split
            pos += 8
            rem -= 8
            continue
        end = np.minimum(rem, 8)  # how many of the word's bytes are the string's
        read += int(end.sum())
        # on tied words the string that ends first sorts first; without NUL
        # bytes the words tie only where the strings end alike
        perm = np.lexsort((end, w)) if nul else np.argsort(w)
        if grp is not None:
            perm = perm[np.argsort(grp[perm], kind="stable")]
        ids, w, end = ids[perm], w[perm], end[perm]
        order[act] = ids
        inner = np.ones(len(act) - 1, dtype=bool) if grp is None else grp[1:] == grp[:-1]
        x = w[1:] ^ w[:-1]
        equal = 8 - np.searchsorted(_BYTE_STEPS, x, side="right")
        h = depth + np.minimum(equal, np.minimum(end[1:], end[:-1]))
        lcps[act[1:][inner]] = h[inner]
        tie = inner & (x == 0) & (end[1:] == 8) & (end[:-1] == 8)
        keep = np.zeros(len(act), dtype=bool)
        keep[1:] = tie
        keep[:-1] |= tie
        # a kept slot opens a new group unless it ties with the slot before
        opens = np.ones(len(act), dtype=bool)
        opens[1:] = ~tie
        gid = np.cumsum(opens[keep]) - 1
        act, ids = act[keep], ids[keep]
        depth += 8
        pos, rem = starts[ids] + depth, lens[ids] - depth
        groups = int(gid[-1]) + 1 if gid.size else 0
        grp = gid.astype(np.min_scalar_type(groups - 1)) if groups > 1 else None
    return reorder(arr, order), lcps, read
