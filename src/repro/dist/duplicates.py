"""Prefix fingerprints and distributed duplicate detection (Section VI).

The prefix-doubling algorithms never compare prefixes directly; they hash
each candidate prefix to a fixed-width *fingerprint* and ask the machine a
multiset question: which of my fingerprints occur exactly once globally?

The hash of a round with candidate length ``c`` is a double Karp–Rabin hash
``H_k = sum_{j<c} a_j * B_k^(c-1-j) mod p_k`` with ``a_j = s[j] + 1`` inside
the string and 0 past its end (so ``b"abc"`` and ``b"abc\0"`` differ), the
primes ``p_1 = 2^31 - 1`` and ``p_2 = 2147483629`` and two fixed bases.  A
64-bit bijective finaliser of ``H_1 * 2^31 + H_2``, keyed by the round salt
and masked to ``bits``, makes the fingerprint; two distinct prefixes collide
with probability about ``2^-bits + ((c - 1) / 2^31)^2``.  The moduli are prime
because modulo ``2^64`` a Thue–Morse block and its complement collide for
every base.  The width is always the global ``c``: a pad clipped to one
rank's longest string would hash one prefix two ways, a false *unique*.

:func:`unique_fingerprint_mask` answers the question with the classic
two-phase exchange: each PE sends each distinct value once, range-partitioned
to its home PE, which counts how many PEs hold it, and a bit vector of
verdicts travels back.  A value is globally unique exactly when one PE holds
it, once, so each PE ANDs the reply with "my local count is 1": repeated
prefixes cross the network once per PE.  With ``golomb=True`` each
fingerprint message is sent as a Golomb-coded sorted set whenever that is
smaller than the plain fixed-width array — the PDMS-Golomb optimisation of
Section VI-B.

A false *duplicate* verdict (fingerprint collision) merely makes the caller
keep a string active for another doubling round — an overestimate, which the
DIST approximation tolerates by design.  A false *unique* verdict is
impossible: equal prefixes always hash equally.

Layout: one round is array-native.  :func:`extend_prefix_hashes` extends
the hashes over only the round's new columns of the packed byte buffer,
:func:`mix_fingerprints` turns them into a ``uint64`` array, one stable
``argsort`` collapses equal values and, with a ``searchsorted`` on the PE
bases, range-partitions the distinct ones,
one :func:`~repro.dist.golomb.coded_sizes` pass counts every destination's
Golomb-coded bytes to pick each message's format,
:class:`FingerprintBlock` and :class:`~repro.dist.golomb.GolombCodedSet` own
``uint64`` value arrays, home PEs count with ``np.unique``, :class:`BitVector`
owns the verdicts as ``np.packbits`` bytes, and the saved permutation and
group index scatter them back into the ``bool`` array the doubling loop
consumes.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..mpi.comm import Communicator
from ..mpi.serialization import WireSized, varint_size
from ..strings.packed import PackedStringArray
from .golomb import GolombCodedSet, as_uint64, coded_sizes, golomb_parameter

__all__ = [
    "extend_prefix_hashes",
    "mix_fingerprints",
    "FingerprintBlock",
    "BitVector",
    "unique_fingerprint_mask",
]

# hashes are (2, m): one row per modulus, so every step runs along m
_PRIMES = np.array([[(1 << 31) - 1], [2147483629]], dtype=np.int64)
# columns per chunk: 257 * 2^31 * 4096 < 2^53 keeps the float64 dot product
# exact; the cell budget bounds the column matrix on long strings
_MAX_CHUNK = 4096
_CHUNK_CELLS = 1 << 20


def _fmix64(x: np.ndarray) -> np.ndarray:
    """MurmurHash3's 64-bit finaliser: a bijection on ``uint64``."""
    for mult in (0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53):
        x = (x ^ (x >> np.uint64(33))) * np.uint64(mult)
    return x ^ (x >> np.uint64(33))


# the bases are constants of the protocol, drawn from [257, p_k) by the
# finaliser of 1 and 2: every rank on every engine must agree on them
_BASES = 257 + (
    _fmix64(np.array([[1], [2]], dtype=np.uint64)) % (_PRIMES - 257).astype(np.uint64)
).astype(np.int64)
# _POWERS[:, k] = B^k mod p, by doubling; _DESCENDING[:, -w:] holds
# B^(w-1), ..., B^0 and _GEOMETRIC[:, t] = sum_{k<t} B^k, both exact float64
_POWERS = np.ones((2, 1), dtype=np.int64)
while _POWERS.shape[1] <= _MAX_CHUNK:
    _POWERS = np.hstack([_POWERS, _POWERS * (_POWERS[:, -1:] * _BASES % _PRIMES) % _PRIMES])
_POWERS = _POWERS[:, : _MAX_CHUNK + 1]
_DESCENDING = np.ascontiguousarray(_POWERS[:, ::-1], dtype=np.float64)
_GEOMETRIC = np.hstack([np.zeros((2, 1)), np.cumsum(_POWERS, axis=1, dtype=np.float64)])


def _windows(buf: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """Rows ``buf[start : start + width]`` (``uint8``), reading 0 past the buffer end."""
    if buf.size < width:
        buf = np.concatenate([buf, np.zeros(width - buf.size, dtype=np.uint8)])
    cut = buf.size - width  # the last start whose window fits
    out = sliding_window_view(buf, width)[np.minimum(starts, cut)]
    late = np.flatnonzero(starts > cut)
    if late.size:
        tail = np.concatenate([buf[cut:], np.zeros(width, dtype=np.uint8)])
        out[late] = sliding_window_view(tail, width)[starts[late] - cut]
    return out


def extend_prefix_hashes(
    hashes: np.ndarray, strings: PackedStringArray, rows: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """The double Karp–Rabin hashes of the ``rows`` of ``strings``, extended
    from their length-``lo`` prefixes to length ``hi``.

    ``hashes`` is the rows' ``(2, m)`` ``int64`` state at length ``lo`` (zeros
    at ``lo = 0``); the result is the state at ``hi``, computed as
    ``H * B^(hi-lo) + S mod p`` where ``S`` covers only the new columns.
    Columns past every row's end add nothing and only scale by ``B``.
    """
    lens = strings.lengths[rows]
    starts = strings.offsets[rows]
    top = max(lo, min(hi, int(lens.max(initial=0))))
    step = max(1, min(_MAX_CHUNK, _CHUNK_CELLS // max(rows.size, 1)))
    for at in range(lo, top, step):
        width = min(step, top - at)
        valid = np.clip(lens - at, 0, width)
        cols = _windows(strings.buffer, starts + np.minimum(lens, at), width)
        short = np.flatnonzero(valid < width)
        if short.size:
            cols[short] *= np.arange(width) < valid[short, None]
        # sum (x + 1) * B^(width-1-j) over the valid columns: the +1 terms are
        # a tail of the geometric series
        sums = _DESCENDING[:, -width:] @ cols.T
        sums += _GEOMETRIC[:, width, None] - _GEOMETRIC.take(width - valid, axis=1)
        hashes = (hashes * _POWERS[:, width, None] + sums.astype(np.int64)) % _PRIMES
    if hi > top:
        scale = [[pow(int(b), hi - top, int(p))] for b, p in zip(_BASES[:, 0], _PRIMES[:, 0])]
        hashes = hashes * np.array(scale, dtype=np.int64) % _PRIMES
    return hashes


def mix_fingerprints(hashes: np.ndarray, salt: int, bits: int) -> np.ndarray:
    """``bits``-wide fingerprints (``uint64``) of ``(2, m)`` double Karp–Rabin
    hashes; ``salt`` decouples the rounds, so a collision of the masked bits
    in one round does not persist into the next."""
    joined = (hashes[0].astype(np.uint64) << np.uint64(31)) | hashes[1].astype(np.uint64)
    key = np.uint64(salt * 0x9E3779B97F4A7C15 % (1 << 64))
    return _fmix64(joined ^ key) & np.uint64((1 << bits) - 1)


class FingerprintBlock(WireSized):
    """A plain ``uint64`` array of fingerprints: fixed ``bits`` each on the wire."""

    def __init__(self, values: Sequence[int], bits: int = 64):
        self.values = as_uint64(values)
        self.bits = bits

    def wire_bytes(self) -> int:
        """Uncompressed fingerprint cost: a varint count plus ``bits`` each."""
        return varint_size(len(self.values)) + len(self.values) * ((self.bits + 7) // 8)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values.tolist())


class BitVector(WireSized):
    """A packed vector of booleans (the verdict replies), 8 flags per byte."""

    def __init__(self, flags: Sequence[bool]):
        flags = np.asarray(flags, dtype=bool)
        self.count = flags.size
        self.packed = np.packbits(flags)

    @property
    def flags(self) -> np.ndarray:
        """The verdicts as a ``bool`` array."""
        return np.unpackbits(self.packed, count=self.count).view(bool)

    def wire_bytes(self) -> int:
        """One bit per verdict flag, plus a varint count."""
        return varint_size(self.count) + self.packed.size

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[bool]:
        return iter(self.flags.tolist())

    def __getitem__(self, index: int) -> bool:
        return bool(self.flags[index])


def unique_fingerprint_mask(
    comm: Communicator,
    fingerprints: Sequence[int],
    bits: int = 64,
    golomb: bool = False,
    phase: Optional[str] = None,
) -> np.ndarray:
    """Per-fingerprint verdicts as a ``bool`` array: is this value globally unique?

    Verdicts come back in the order of ``fingerprints`` (a sequence of ints
    or a ``uint64`` array).  Values must fit in ``bits`` bits.
    ``golomb=True`` enables the compressed message format (the smaller of
    Golomb-coded and plain is chosen per message, as a real implementation
    would).  ``phase`` overrides the accounting phase label.
    """
    limit = 1 << bits
    try:
        fps: Optional[np.ndarray] = as_uint64(fingerprints)
    except ValueError:  # a negative, non-integer or wider-than-64-bit value
        fps = None
    if fps is None or (fps.size and int(fps.max()) >= limit):
        bad = next(
            v for v in fingerprints
            if not (isinstance(v, (int, np.integer)) and 0 <= int(v) < limit)
        )
        raise ValueError(f"fingerprint {bad} does not fit in {bits} bits")
    p = comm.size

    with comm.phase(phase if phase is not None else "duplicate-detection"):
        # collapse equal values: ``group`` maps each sorted position to its
        # distinct value, of which this PE sends one copy
        order = np.argsort(fps, kind="stable")
        ordered = fps[order]
        first = np.ones(fps.size, dtype=bool)
        first[1:] = ordered[1:] != ordered[:-1]
        group = np.cumsum(first) - 1
        distinct = ordered[first]
        single = np.bincount(group) == 1
        # range-partition values to home PEs; home PE d owns the slice
        # [ceil(d*limit/p), ceil((d+1)*limit/p)).  Values are sent relative
        # to the slice base, which keeps Golomb deltas small; equality is
        # preserved because each PE's copy of a value shares a home (and base).
        bases = np.array([-(-d * limit // p) for d in range(p)], dtype=np.uint64)
        bounds = np.append(np.searchsorted(distinct, bases), distinct.size)
        loads = np.diff(bounds).tolist()
        values = distinct - np.repeat(bases, loads)

        edges = bounds.tolist()
        blocks = [FingerprintBlock(values[lo:hi], bits) for lo, hi in zip(edges, edges[1:])]
        messages: List[object] = list(blocks)
        sizes = [block.wire_bytes() for block in blocks]
        if golomb:
            # one pass sizes every destination's coded set; a message is
            # coded where that is smaller than the plain block
            slice_span = limit // p + 1
            ms = [golomb_parameter(slice_span, n) for n in loads]
            for dest, size in enumerate(coded_sizes(values, loads, ms)):
                if size < sizes[dest]:
                    messages[dest] = GolombCodedSet(blocks[dest].values, slice_span)
                    sizes[dest] = size

        received = comm.alltoall(messages, nbytes=sizes)
        # each PE holding a value sends it once, so the count is of PEs
        _, inverse, counts = np.unique(
            np.concatenate([msg.values for msg in received]),
            return_inverse=True,
            return_counts=True,
        )
        cuts = np.cumsum([len(msg) for msg in received])[:-1]
        replies = [BitVector(flags) for flags in np.split(counts[inverse] == 1, cuts)]
        verdicts_home = comm.alltoall(replies)

        # the messages were cut from ``distinct`` in PE order, so the replies
        # concatenate to its verdicts; a value is unique where one PE holds
        # one copy, and the group index and permutation carry that back
        unique = np.concatenate([reply.flags for reply in verdicts_home]) & single
        out = np.empty(fps.size, dtype=bool)
        out[order] = unique[group]
    return out
