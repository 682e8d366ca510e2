"""Reference front coder and decoder: the oracle of the exchange's wire form.

The exchange never builds the front-coded form of a bucket: a packed
:class:`repro.dist.exchange.LcpCompressedBlock` holds the sent run plus its
clipped LCPs and derives every wire number from those two arrays.  This
module is the receiver a real implementation would run, kept as the
reference the tests pin the block's accounting against:

* :func:`front_code` — the wire form of a sorted run, ``(clipped LCPs,
  suffixes past each LCP)``, built by one batched gather;
* :func:`front_decode` — the vectorized receiver, resolving each copied
  prefix along the previous-smaller-value chain over the LCP array;
* :func:`_front_decode_scalar` — the per-string loop that pins
  :func:`front_decode`.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.strings.packed import PackedStringArray, clip_lcps

__all__ = ["front_code", "front_decode"]


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
