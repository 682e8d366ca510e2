"""Packed string arrays: the vectorized data layout of the hot path.

A :class:`PackedStringArray` stores a string array as **one contiguous
``numpy.uint8`` character buffer plus an ``int64`` offsets array** (``n + 1``
entries, string ``i`` occupying ``buffer[offsets[i]:offsets[i+1]]``).  This is
the layout every fast string sorter uses in C/C++ land — bucket writes and
prefix scans become bulk memory operations instead of per-object work — and
in Python it additionally removes the per-``bytes``-object interpreter
overhead that dominates the simulator's hot loops.

The module provides the packed container plus the vectorized kernels the
distributed exchange path is built from:

* :func:`packed_lcp_array` — LCP array of adjacent strings via broadcasted
  block comparison over offset-aligned views (no per-character Python work);
* :func:`clip_lcps` — the LCP clip of LCP front coding (Section V,
  Step 3): the exchange accounts a bucket's front-coded wire form from the
  clipped LCPs, and PDMS gets its prefix LCP array from the same clip;
* :func:`packed_bucket_boundaries` — splitter partition of a sorted run via
  ``np.searchsorted`` over a fixed-width key view;
* :func:`sort_with_order` / :func:`packed_sort` — whole-array sorting through
  numpy's fixed-width byte dtype where safe;
* :func:`truncate` — vectorized per-string prefix truncation (PDMS builds
  its approximate distinguishing prefixes with this).

Slicing a :class:`PackedStringArray` is **zero-copy**: views share the
character buffer and merely narrow the offsets window, so cutting a sorted
run into ``p`` destination buckets allocates no string data at all.  A
pickled view carries only its own window of the buffer.

Every kernel is bit-exact with its scalar counterpart (the scalar
:mod:`repro.strings.lcp` machinery); the property tests in
``tests/test_packed.py`` pin that equivalence on adversarial inputs and the
``benchmarks/test_packed_hotpath.py`` micro-benchmark tracks the speedup.
"""

from __future__ import annotations

import sys
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "PackedStringArray",
    "concat_runs",
    "packed_lcp_array",
    "clip_lcps",
    "fixed_width_keys",
    "packed_bucket_boundaries",
    "packed_sort",
    "sort_with_order",
    "string_lengths",
    "take",
    "truncate",
    "validate_strings",
]

# Guard rails for the fixed-width (padded ``|S``) fast paths: beyond these the
# padded matrix would cost more memory traffic than the O(log n) scalar
# fallback saves.
_MAX_FIXED_WIDTH = 4096
_MAX_FIXED_BYTES = 1 << 27  # 128 MiB of padded key material


class PackedStringArray:
    """A string array as one contiguous byte buffer plus an offsets array.

    Parameters
    ----------
    buffer:
        ``uint8`` character data.  Views created by slicing share this array.
    offsets:
        ``int64`` array of ``n + 1`` non-decreasing absolute offsets into
        ``buffer``; string ``i`` is ``buffer[offsets[i]:offsets[i+1]]``.

    The container implements the read-only sequence protocol over ``bytes``
    values, so it can stand in for ``list[bytes]`` anywhere on the hot path
    (sampling, bisection, iteration) while the vectorized kernels operate on
    the raw buffer directly.
    """

    __slots__ = ("buffer", "offsets", "_lengths", "_has_zero")

    def __init__(self, buffer: np.ndarray, offsets: np.ndarray):
        self.buffer = buffer
        self.offsets = offsets
        self._lengths: Optional[np.ndarray] = None
        self._has_zero: Optional[bool] = None

    # -- construction ----------------------------------------------------------
    @classmethod
    def from_strings(
        cls, strings: Union["PackedStringArray", Sequence[bytes]]
    ) -> "PackedStringArray":
        """Pack a sequence of ``bytes`` (no copy if already packed)."""
        if isinstance(strings, cls):
            return strings
        strings = list(strings)
        joined = b"".join(strings)
        buffer = np.frombuffer(joined, dtype=np.uint8)
        offsets = np.zeros(len(strings) + 1, dtype=np.int64)
        if strings:
            np.cumsum(
                np.fromiter(map(len, strings), dtype=np.int64, count=len(strings)),
                out=offsets[1:],
            )
        return cls(buffer, offsets)

    @classmethod
    def empty(cls) -> "PackedStringArray":
        """A packed array holding zero strings."""
        return cls(np.zeros(0, dtype=np.uint8), np.zeros(1, dtype=np.int64))

    def __reduce__(self) -> Tuple[type, Tuple[np.ndarray, np.ndarray]]:
        """Pickle only this view's window of the buffer, rebased to 0 (a
        bucket cut from a PE's run would otherwise carry the whole run)."""
        base, end = int(self.offsets[0]), int(self.offsets[-1])
        return PackedStringArray, (self.buffer[base:end], self.offsets - base)

    # -- sequence protocol -----------------------------------------------------
    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            lo, hi, step = idx.indices(len(self))
            if step != 1:
                raise ValueError("PackedStringArray slices must be contiguous")
            return PackedStringArray(self.buffer, self.offsets[lo : hi + 1])
        if idx < 0:
            idx += len(self)
        if not 0 <= idx < len(self):
            raise IndexError("string index out of range")
        return self.buffer[self.offsets[idx] : self.offsets[idx + 1]].tobytes()

    def __iter__(self) -> Iterator[bytes]:
        return iter(self.to_list())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PackedStringArray):
            return len(self) == len(other) and self.to_list() == other.to_list()
        if isinstance(other, list):
            return self.to_list() == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = ", ".join(repr(s) for s in self.to_list()[:4])
        more = "" if len(self) <= 4 else f", ... ({len(self)} strings)"
        return f"PackedStringArray([{preview}{more}])"

    # -- conversions -----------------------------------------------------------
    def to_list(self) -> List[bytes]:
        """Materialise as ``list[bytes]`` (one bulk copy plus n small slices)."""
        base = int(self.offsets[0])
        data = self.buffer[base : int(self.offsets[-1])].tobytes()
        off = (self.offsets - base).tolist()  # plain ints: fast slice indices
        return [data[a:b] for a, b in zip(off, off[1:])]

    # -- statistics ------------------------------------------------------------
    @property
    def lengths(self) -> np.ndarray:
        """Per-string lengths (``int64``), cached."""
        if self._lengths is None:
            self._lengths = np.diff(self.offsets)
        return self._lengths

    @property
    def num_chars(self) -> int:
        """Total characters ``N``."""
        return int(self.offsets[-1] - self.offsets[0])

    @property
    def max_len(self) -> int:
        """Length of the longest string (0 for an empty array)."""
        if len(self) == 0:
            return 0
        return int(self.lengths.max())

    def has_zero_byte(self) -> bool:
        """Whether any string contains a 0 byte (disables ``|S`` fast paths)."""
        if self._has_zero is None:
            region = self.buffer[int(self.offsets[0]) : int(self.offsets[-1])]
            self._has_zero = bool((region == 0).any())
        return self._has_zero


def validate_strings(
    strings: Iterable[object],
) -> Union[PackedStringArray, List[bytes]]:
    """The input boundary: a packed array as it is, anything else coerced
    into a ``list[bytes]``.

    ``str`` values are encoded as UTF-8, ``bytearray`` values copied to
    ``bytes``, and ``bytes`` values (subclasses included) kept as they are.
    Any other type raises ``TypeError``, so that errors surface at the API
    boundary instead of deep inside a sorting routine.  When every element
    is exactly ``bytes``, the list is built and checked with C-level
    iteration only.
    """
    if isinstance(strings, PackedStringArray):
        return strings
    strings = list(strings)
    if set(map(type, strings)) <= {bytes}:
        return strings
    out: List[bytes] = []
    for s in strings:
        if isinstance(s, bytes):
            out.append(s)
        elif isinstance(s, bytearray):
            out.append(bytes(s))
        elif isinstance(s, str):
            out.append(s.encode("utf-8"))
        else:
            raise TypeError(
                f"strings must be bytes or str, got {type(s).__name__!r}"
            )
    return out


def string_lengths(strings: Union[PackedStringArray, Sequence[bytes]]) -> np.ndarray:
    """Per-string ``int64`` lengths: a packed array's cached ``lengths``,
    measured for any other sequence of ``bytes``."""
    if isinstance(strings, PackedStringArray):
        return strings.lengths
    return np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))


def concat_runs(runs: Sequence[PackedStringArray]) -> Tuple[PackedStringArray, np.ndarray]:
    """The runs back to back in one fresh array (``offsets[0] == 0``), and
    the ``int64`` run bounds: run ``r`` is strings ``bounds[r]:bounds[r+1]``."""
    bounds = np.zeros(len(runs) + 1, dtype=np.int64)
    np.cumsum([len(run) for run in runs], out=bounds[1:])
    offsets = np.zeros(int(bounds[-1]) + 1, dtype=np.int64)
    np.cumsum(np.concatenate([run.lengths for run in runs]), out=offsets[1:])
    buffer = np.concatenate([run.buffer[int(run.offsets[0]) : int(run.offsets[-1])] for run in runs])
    return PackedStringArray(buffer, offsets), bounds


# ---------------------------------------------------------------------------
# vectorized LCP of adjacent strings
# ---------------------------------------------------------------------------

_LCP_BLOCK = 64


def packed_lcp_array(arr: PackedStringArray) -> np.ndarray:
    """LCP array of adjacent strings (``out[0] == 0``), fully vectorized.

    The bulk of the work is one broadcasted comparison: a sliding-window
    view lifts the first ``W`` bytes of every string into an ``(n, W)``
    matrix (row-contiguous copies, no per-byte index arithmetic) and the
    first mismatch of each adjacent row pair is an ``argmax``.  Bytes read
    past a string's end belong to *later* strings in the buffer — any
    accidental match there is clipped away by the true pair limit
    ``min(len_i, len_{i+1})``, so no masking is needed.  The few pairs whose
    common prefix exceeds ``W`` continue in ``W``-byte gather blocks.
    Values are identical to :func:`repro.strings.lcp.lcp_array`.
    """
    n = len(arr)
    out = np.zeros(n, dtype=np.int64)
    if n < 2:
        return out
    off, buf, lens = arr.offsets, arr.buffer, arr.lengths
    m = np.minimum(lens[:-1], lens[1:])  # pair i compares strings i and i+1
    mmax = int(m.max())
    if buf.size == 0 or mmax == 0:
        return out
    words = (min(_LCP_BLOCK, mmax) + 7) // 8
    w = words * 8
    base = int(off[0])
    padded = np.concatenate(
        [buf[base : int(off[-1])], np.zeros(w, dtype=np.uint8)]
    )
    windows = np.lib.stride_tricks.sliding_window_view(padded, w)
    mat = windows[off[:-1] - base]  # (n, w): first w bytes of every string
    first = _first_mismatch(mat, words, w)
    k = np.minimum(first, m)

    # long-prefix tail: pairs that matched the whole window and may go on
    active = np.nonzero((first >= w) & (m > w))[0]
    cols = np.arange(w, dtype=np.int64)
    cap = buf.size - 1
    while active.size:
        ka = k[active]
        c = np.minimum(m[active] - ka, w)
        li = (off[active] + ka)[:, None] + cols[None, :]
        ri = (off[active + 1] + ka)[:, None] + cols[None, :]
        # positions past a pair's limit are masked invalid; clipping keeps the
        # gather in-bounds without affecting masked lanes
        invalid = cols[None, :] >= c[:, None]
        blk_neq = (buf[np.minimum(li, cap)] != buf[np.minimum(ri, cap)]) | invalid
        first_bad = np.where(blk_neq.any(axis=1), blk_neq.argmax(axis=1), w)
        matched = np.minimum(first_bad, c)
        new_k = ka + matched
        k[active] = new_k
        active = active[(matched == c) & (new_k < m[active])]
    out[1:] = k
    return out


def _first_mismatch(mat: np.ndarray, words: int, w: int) -> np.ndarray:
    """Per adjacent row pair of ``mat`` (an ``(n, w)`` C-contiguous ``uint8``
    matrix): index of the first differing byte, or ``w`` if the rows agree
    on the whole window.

    Rows are compared eight bytes per lane through a ``uint64`` view; the
    differing byte inside the first differing word falls out of the lowest
    set bit of the XOR (little-endian: lowest address = least significant
    byte).  Big-endian hosts take the plain byte-wise path.
    """
    n = mat.shape[0]
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    if _LITTLE_ENDIAN:
        flat = np.ascontiguousarray(mat).view(np.uint64).reshape(n, words)
        neq = flat[:-1] != flat[1:]
        word = neq.argmax(axis=1)
        rows = np.arange(n - 1, dtype=np.int64)
        lanes = flat.reshape(-1)
        x = lanes[rows * words + word] ^ lanes[(rows + 1) * words + word]
        # lowest set bit isolates the first differing byte; its log2 is exact
        # in float64 because it is a power of two
        lsb = x & (np.uint64(0) - x)
        bit = np.log2(np.maximum(lsb, np.uint64(1)).astype(np.float64)).astype(np.int64)
        first = word.astype(np.int64) * 8 + bit // 8
        first[x == 0] = w  # no differing word: full-window match
        return first
    neq_bytes = mat[:-1] != mat[1:]
    first = neq_bytes.argmax(axis=1).astype(np.int64)
    first[~neq_bytes[np.arange(n - 1), first]] = w
    return first


_LITTLE_ENDIAN = sys.byteorder == "little"


# ---------------------------------------------------------------------------
# LCP clipping (Section V, Step 3)
# ---------------------------------------------------------------------------

def clip_lcps(arr: PackedStringArray, lcps: Sequence[int]) -> np.ndarray:
    """``lcps`` with the first entry 0 and each entry clipped to both
    neighbouring lengths of ``arr`` (a fresh ``int64`` array).

    Since ``LCP(s[:a], t[:b]) = min(LCP(s, t), a, b)``, clipping a sorted
    run's LCP array to the lengths of its truncated strings yields the LCP
    array of the truncated run — how PDMS gets its prefixes' LCPs for free.
    """
    h = np.array(lcps, dtype=np.int64)
    if len(h) != len(arr):
        raise ValueError("strings and lcps must have equal length")
    if len(h):
        lens = arr.lengths
        h[0] = 0
        np.minimum(h[1:], np.minimum(lens[1:], lens[:-1]), out=h[1:])
    return h


# ---------------------------------------------------------------------------
# fixed-width key views, partition, sorting
# ---------------------------------------------------------------------------

def fixed_width_keys(arr: PackedStringArray, width: int) -> np.ndarray:
    """``|S{width}`` key array: every string truncated to ``width`` bytes and
    NUL-padded.  With a NUL-free input this ordering equals ``bytes`` order
    on the truncated strings (padding NULs compare below every character)."""
    if width <= 0:
        raise ValueError("width must be positive")
    off = arr.offsets
    base = int(off[0])
    padded = np.concatenate(
        [arr.buffer[base : int(off[-1])], np.zeros(width, dtype=np.uint8)]
    )
    windows = np.lib.stride_tricks.sliding_window_view(padded, width)
    mat = windows[off[:-1] - base]  # (n, width): a fresh row-contiguous copy
    if len(arr) and int(arr.lengths.min()) < width:
        # NUL-pad past each string's end (the window read runs into the
        # following strings' bytes, which would corrupt the ordering)
        ends = np.minimum(arr.lengths, width).astype(np.int32)
        mat *= np.arange(width, dtype=np.int32) < ends[:, None]
    return mat.reshape(-1).view(f"S{width}")


def _fixed_width_ok(arr: PackedStringArray, width: int) -> bool:
    return (
        0 < width <= _MAX_FIXED_WIDTH
        and len(arr) * width <= _MAX_FIXED_BYTES
        and not arr.has_zero_byte()
    )


def packed_bucket_boundaries(
    arr: PackedStringArray, splitters: Sequence[bytes]
) -> List[int]:
    """Cumulative bucket boundaries of a *sorted* packed run.

    Bucket ``j`` holds ``(f_{j-1}, f_j]``: ties with a splitter go to the
    lower bucket, which lands exact duplicates on one PE.  With many
    splitters the boundaries come out of one ``np.searchsorted`` over a
    fixed-width key view —
    truncating every string to ``max splitter length + 1`` bytes is exact: a
    string beats a splitter either within the splitter's length or by being
    longer, and one extra column preserves the "longer" case.  With only a
    handful of splitters (or NUL bytes in play) building the key matrix
    costs more than ``p log n`` bisections, so the bisect path runs instead.
    """
    for i in range(1, len(splitters)):
        if splitters[i - 1] > splitters[i]:
            raise ValueError("splitters must be sorted")
    n = len(arr)
    if not splitters:
        return [0, n]
    width = max(len(f) for f in splitters) + 1
    if (
        n
        and len(splitters) * 64 >= n  # key matrix amortised over many probes
        and _fixed_width_ok(arr, width)
        and not any(b"\x00" in f for f in splitters)
    ):
        keys = fixed_width_keys(arr, width)
        fs = np.array(list(splitters), dtype=f"S{width}")
        bounds = np.searchsorted(keys, fs, side="right")
        return [0] + bounds.tolist() + [n]
    # scalar fallback (NUL bytes or oversized keys): bisect over the view
    from bisect import bisect_right

    bounds = [0]
    for f in splitters:
        bounds.append(bisect_right(arr, f, lo=bounds[-1]))
    bounds.append(n)
    return bounds


def take(arr: PackedStringArray, order: np.ndarray) -> PackedStringArray:
    """New packed array with strings reordered by ``order`` (a gather)."""
    order = np.asarray(order, dtype=np.int64)
    lens = arr.lengths[order]
    off = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(lens, out=off[1:])
    total = int(off[-1])
    idx = np.repeat(arr.offsets[:-1][order] - off[:-1], lens) + np.arange(
        total, dtype=np.int64
    )
    return PackedStringArray(arr.buffer[idx], off)


def sort_with_order(arr: PackedStringArray) -> Tuple[PackedStringArray, np.ndarray]:
    """Lexicographically sorted copy of ``arr`` and the stable order behind it.

    A NUL-free block emits the rows of the key matrix it has just sorted:
    with no NUL in any string, the non-zero bytes of ``mat[order]`` are
    exactly the sorted strings' bytes.  The matrix and its gather are
    ``O(n * width)`` where :func:`take` is ``O(num_chars)``: measured, the
    rows are faster up to 2-6 matrix cells per character and smaller up to 8,
    so the key sort runs up to 4.  Beyond that (one long string among many
    short ones) no matrix is built: ``sorted()`` orders the block.
    """
    n, width = len(arr), arr.max_len
    if n > 1 and n * width <= 4 * arr.num_chars and _fixed_width_ok(arr, width):
        keys = fixed_width_keys(arr, width)
        order = np.argsort(keys, kind="stable")
        rows = keys.view(np.uint8).reshape(n, width)[order]
        off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(arr.lengths[order], out=off[1:])
        padded = arr.num_chars != n * width
        return PackedStringArray(rows[rows != 0] if padded else rows.reshape(-1), off), order
    # NUL bytes, skewed or oversized keys, or nothing to sort
    data = arr.to_list()
    order = np.asarray(sorted(range(n), key=data.__getitem__), dtype=np.int64)
    return take(arr, order), order


def packed_sort(arr: PackedStringArray) -> PackedStringArray:
    """Lexicographically sorted copy of ``arr``."""
    return sort_with_order(arr)[0]


def truncate(arr: PackedStringArray, max_lens: Sequence[int]) -> PackedStringArray:
    """Per-string prefix truncation: string ``i`` becomes ``s_i[:max_lens[i]]``.

    PDMS uses this to build its approximate distinguishing prefixes without
    materialising ``n`` sliced ``bytes`` objects.
    """
    limits = np.asarray(max_lens, dtype=np.int64)
    if len(limits) != len(arr):
        raise ValueError("max_lens must have one entry per string")
    t = np.minimum(arr.lengths, np.maximum(limits, 0))
    toff = np.zeros(len(arr) + 1, dtype=np.int64)
    np.cumsum(t, out=toff[1:])
    total = int(toff[-1])
    idx = np.repeat(arr.offsets[:-1] - toff[:-1], t) + np.arange(total, dtype=np.int64)
    return PackedStringArray(arr.buffer[idx], toff)
