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
* :func:`front_code` / :func:`front_decode` — batched LCP front coding
  (Section V, Step 3) operating directly on the byte buffer, with the LCP
  clip :func:`clip_lcps` that also gives PDMS its prefix LCP array;
* :func:`packed_bucket_boundaries` — splitter partition of a sorted run via
  ``np.searchsorted`` over a fixed-width key view;
* :func:`sort_with_order` / :func:`packed_sort` — whole-array sorting through
  numpy's fixed-width byte dtype where safe;
* :func:`truncate` — vectorized per-string prefix truncation (PDMS builds
  its approximate distinguishing prefixes with this).

Slicing a :class:`PackedStringArray` is **zero-copy**: views share the
character buffer and merely narrow the offsets window, so cutting a sorted
run into ``p`` destination buckets allocates no string data at all.

Every kernel is bit-exact with its scalar counterpart (the scalar
:mod:`repro.strings.lcp` machinery and the original per-string front
coder); the property tests in ``tests/test_packed.py`` pin that equivalence
on adversarial inputs and the ``benchmarks/test_packed_hotpath.py``
micro-benchmark tracks the speedup.
"""

from __future__ import annotations

import sys
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "PackedStringArray",
    "as_packed",
    "concat_runs",
    "packed_lcp_array",
    "clip_lcps",
    "front_code",
    "front_decode",
    "fixed_width_keys",
    "packed_bucket_boundaries",
    "packed_sort",
    "sort_with_order",
    "take",
    "truncate",
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

    def is_sorted(self) -> bool:
        """``True`` iff the strings are in non-decreasing lexicographic order."""
        n = len(self)
        if n < 2:
            return True
        h = packed_lcp_array(self)[1:]
        left_len, right_len = self.lengths[:-1], self.lengths[1:]
        # pair i is ordered iff the LCP exhausts the left string, or the
        # first differing character increases
        exhausted = h == left_len
        diverging = ~exhausted & (h < right_len)
        if not (exhausted | diverging).all():
            return False  # left string extends past the right one at the LCP
        idx = np.nonzero(diverging)[0]
        lc = self.buffer[self.offsets[:-1][idx] + h[idx]]
        rc = self.buffer[self.offsets[1:][idx] + h[idx]]
        return bool((lc < rc).all())


def as_packed(strings: Sequence[bytes]) -> PackedStringArray:
    """Coerce to :class:`PackedStringArray` (alias of ``from_strings``)."""
    return PackedStringArray.from_strings(strings)


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
# batched LCP front coding (Section V, Step 3)
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


def front_code(
    arr: PackedStringArray, lcps: Sequence[int]
) -> Tuple[np.ndarray, PackedStringArray]:
    """Front-code a sorted run: ``(clipped LCPs, suffix array)``.

    The wire form of :meth:`repro.dist.exchange.LcpCompressedBlock.encode`:
    the first string travels in full and every LCP is clipped by
    :func:`clip_lcps`.  The suffixes land
    in a fresh packed array whose buffer is exactly the characters that go
    on the wire.
    """
    n = len(arr)
    h = clip_lcps(arr, lcps)
    lens = arr.lengths
    suf_lens = lens - h
    suf_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(suf_lens, out=suf_off[1:])
    total = int(suf_off[-1])
    starts = arr.offsets[:-1] + h
    idx = np.repeat(starts - suf_off[:-1], suf_lens) + np.arange(total, dtype=np.int64)
    return h, PackedStringArray(arr.buffer[idx], suf_off)


def _front_decode_scalar(
    h: np.ndarray, suffixes: PackedStringArray
) -> PackedStringArray:
    """Reference decoder (the original per-string loop); kept as the oracle
    the property tests pin :func:`front_decode` against."""
    strings: List[bytes] = []
    prev = b""
    for hi, suffix in zip(h.tolist(), suffixes):
        s = prev[:hi] + suffix
        strings.append(s)
        prev = s
    return PackedStringArray.from_strings(strings)


def _prev_smaller(h: np.ndarray) -> np.ndarray:
    """For each ``i``: the largest ``d < i`` with ``h[d] < h[i]`` (-1 if none).

    Vectorized pointer jumping: every row starts with candidate ``i - 1``;
    while a candidate is not strictly smaller it jumps to the candidate's own
    candidate.  The invariant "all rows strictly between ``cand(i)`` and ``i``
    have ``h >= h[i]``" is preserved by each jump, so the first candidate with
    ``h < h[i]`` is the *nearest* previous smaller value.  Converges in
    ``O(log n)`` rounds.
    """
    n = len(h)
    psv = np.arange(-1, n - 1, dtype=np.int64)
    big = np.concatenate([h, np.array([-1], dtype=np.int64)])  # big[-1] sentinel
    while True:
        active = np.nonzero(big[psv] >= h)[0]
        if not active.size:
            return psv
        psv[active] = psv[psv[active]]


def front_decode(lcps: Sequence[int], suffixes: PackedStringArray) -> PackedStringArray:
    """Reconstruct the full strings of a front-coded run, fully vectorized.

    The transmitted suffix characters are scattered into the output buffer
    by one cumulative-offset gather.  The copied prefixes are resolved over
    the contiguous buffer without any per-string Python work: the byte at
    column ``c`` of string ``i`` was last *transmitted* by the nearest
    earlier string ``d`` whose LCP satisfies ``h[d] <= c`` — and for fixed
    ``i`` those donors are exactly ``i``'s previous-smaller-value chain over
    the LCP array.  Row ``i`` therefore copies the column range
    ``[h[psv(i)], h[i])`` from ``psv(i)``'s suffix, the range
    ``[h[psv²(i)], h[psv(i)])`` from ``psv²(i)``'s suffix, and so on down to
    column 0; the chains for *all* rows are emitted together, one vectorized
    gather/scatter per chain level (``max`` chain depth rounds, 1 for
    all-equal runs).  Every output byte is written exactly once and all
    source ranges lie in the transmitted suffix data, so no ordering or
    clipping is needed.  Bit-identical to :func:`_front_decode_scalar`.
    """
    n = len(suffixes)
    h = np.asarray(lcps, dtype=np.int64)
    if len(h) != n:
        raise ValueError("lcps and suffixes must have equal length")
    suf_lens = suffixes.lengths
    out_lens = h + suf_lens
    if n:
        if h[0] > 0 or (n > 1 and bool((h[1:] > out_lens[:-1]).any())):
            bad = 0 if h[0] > 0 else int(np.nonzero(h[1:] > out_lens[:-1])[0][0]) + 1
            raise ValueError(
                f"corrupt LCP-compressed block: LCP {int(h[bad])} exceeds the "
                f"previous string's length {int(out_lens[bad - 1]) if bad else 0}"
            )

    out_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(out_lens, out=out_off[1:])
    out_buf = np.empty(int(out_off[-1]), dtype=np.uint8)

    # 1) scatter every transmitted suffix byte to its final position
    soff = suffixes.offsets
    sdata = suffixes.buffer[int(soff[0]) : int(soff[-1])]
    sstart = (soff[:-1] - soff[0]).astype(np.int64)
    if sdata.size:
        dst = np.repeat(out_off[:-1] + h - sstart, suf_lens)
        out_buf[dst + np.arange(sdata.size, dtype=np.int64)] = sdata

    # 2) resolve the copied prefixes along the previous-smaller-value chains
    if n and h.size and int(h.max()) > 0:
        psv = _prev_smaller(h)
        rows_acc: List[np.ndarray] = []
        donor_acc: List[np.ndarray] = []
        lo_acc: List[np.ndarray] = []
        hi_acc: List[np.ndarray] = []
        active = np.nonzero(h > 0)[0]
        cur = psv[active]
        hi = h[active]
        while active.size:
            lo = h[cur]
            rows_acc.append(active)
            donor_acc.append(cur)
            lo_acc.append(lo)
            hi_acc.append(hi)
            keep = lo > 0
            active = active[keep]
            cur = psv[cur[keep]]
            hi = lo[keep]
        rows = np.concatenate(rows_acc)
        donor = np.concatenate(donor_acc)
        lo = np.concatenate(lo_acc)
        hi = np.concatenate(hi_acc)
        seg = hi - lo
        total = int(seg.sum())
        within = np.arange(total, dtype=np.int64)
        starts = np.zeros(len(seg), dtype=np.int64)
        np.cumsum(seg[:-1], out=starts[1:])
        within -= np.repeat(starts, seg)
        # donor d transmitted columns [h[d], out_lens[d]); the chain structure
        # guarantees [lo, hi) lies inside that range, so the source bytes are
        # already present in the transmitted suffix data
        out_buf[np.repeat(out_off[rows] + lo, seg) + within] = sdata[
            np.repeat(sstart[donor] + lo - h[donor], seg) + within
        ]
    return PackedStringArray(out_buf, out_off)


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

    Identical to :func:`repro.dist.partition.bucket_boundaries` (ties with a
    splitter go to the lower bucket).  With many splitters the boundaries
    come out of one ``np.searchsorted`` over a fixed-width key view —
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
