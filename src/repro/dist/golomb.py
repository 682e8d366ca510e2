"""Golomb coding of sorted integer sets (Section VI-B).

PDMS-Golomb communicates *sorted* sets of fingerprints.  A sorted set of
``n`` values from a universe of size ``u`` can be delta-encoded: the gaps
between consecutive values are geometrically distributed with mean ``u/n``,
for which a Golomb code with parameter ``M ≈ ln(2) · u/n`` is the optimal
prefix-free code.  Every value then costs roughly ``log2(u/n) + 1.5`` bits
instead of the fixed ``log2 u`` bits of a plain fingerprint array — the
denser the set, the bigger the saving.

The codec below is the classic Golomb construction: a gap ``d`` is written
as the unary quotient ``d // M`` followed by the truncated-binary remainder
``d % M``.  Repeated values (gap 0) are legal — exact duplicates of a
fingerprint cost a single bit each.

Layout: values are one ``uint64`` array end to end, so universes up to
``2**64`` are exact (no ``int64`` intermediate on values, gaps or codes).
:func:`encode_sorted` is the one encoder: it lays every code word out in a
bit array at once and packs it.  :func:`decode_sorted` reads bit by bit on
Python ints and is kept as the scalar oracle the encoder is tested against
(the simulated receive side reads :attr:`GolombCodedSet.values`).
"""

from __future__ import annotations

import math
import zlib
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from ..mpi.serialization import WireSized, varint_size

__all__ = [
    "as_uint64",
    "golomb_parameter",
    "encode_sorted",
    "decode_sorted",
    "GolombCodedSet",
]


def as_uint64(values: Sequence[int]) -> np.ndarray:
    """``values`` as one ``uint64`` array; ``ValueError`` unless all are ints in ``[0, 2**64)``."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "ui" and arr.size:
        # numpy types an int list that straddles 2**63 as float64 and one that
        # leaves 64 bits as object: look at the Python values and cast exactly
        if all(isinstance(v, (int, np.integer)) and 0 <= int(v) < 1 << 64 for v in values):
            return np.array(values, dtype=np.uint64)
    elif arr.dtype.kind == "u" or not arr.size or arr.min() >= 0:
        return arr.astype(np.uint64, copy=False)
    raise ValueError("negative, non-integer or wider-than-64-bit value cannot be Golomb-coded")


def golomb_parameter(universe: int, n: int) -> int:
    """Near-optimal Golomb parameter ``M`` for ``n`` sorted values in ``universe``.

    ``M = ceil(ln(2) · universe / n)``, clamped to at least 1.  ``n == 0``
    returns 1 (nothing will be encoded, any parameter works).
    """
    if universe <= 0:
        raise ValueError("universe must be positive")
    if n <= 0:
        return 1
    return max(1, math.ceil(math.log(2) * universe / n))


class _BitReader:
    """MSB-first bit consumer over a bytes payload."""

    def __init__(self, payload: bytes) -> None:
        self._payload = payload
        self._pos = 0

    def read_bit(self) -> int:
        """Consume and return the next bit."""
        byte = self._payload[self._pos >> 3]
        bit = (byte >> (7 - (self._pos & 7))) & 1
        self._pos += 1
        return bit

    def read_bits(self, width: int) -> int:
        """Consume ``width`` bits as one MSB-first integer."""
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value

    def read_unary(self) -> int:
        """Consume a unary-coded value (count of one-bits before the zero)."""
        q = 0
        while self.read_bit():
            q += 1
        return q


def _remainder_width(m: int) -> Tuple[int, int]:
    """``(b, cutoff)`` of the truncated-binary remainder code for parameter ``m``."""
    b = (m - 1).bit_length()
    return b, (1 << b) - m


def encode_sorted(values: Sequence[int], universe: int) -> Tuple[bytes, int]:
    """Golomb-encode a sorted sequence of non-negative ints (or ``uint64`` array).

    Returns ``(payload, m)``; ``m`` is the parameter the decoder needs.
    Unsorted or negative input raises ``ValueError``.  Values, gaps and
    ``m`` are ``uint64``: universes up to ``2**64`` are exact.
    """
    vals = as_uint64(values)
    if vals.size > 1 and bool((vals[1:] < vals[:-1]).any()):
        raise ValueError("encode_sorted requires a sorted sequence")
    m = golomb_parameter(universe, vals.size)
    b, cutoff = _remainder_width(m)
    deltas = np.diff(vals, prepend=np.uint64(0))
    q = deltas // np.uint64(m)
    r = deltas - q * np.uint64(m)
    # remainder code words left-aligned in b bits: a long word is r + cutoff
    # in b bits, a short one is r in b - 1 bits (its last column is dropped)
    long_code = r >= np.uint64(cutoff)
    code = np.where(long_code, r + np.uint64(cutoff), r << np.uint64(1))
    lengths = q.astype(np.int64) + (b + long_code)
    pos = np.cumsum(lengths) - (b + long_code)  # the unary terminators
    bits = np.ones(int(lengths.sum()), dtype=np.uint8)  # the unary runs
    bits[pos] = 0
    if b:  # m == 1 has no remainder bits
        # only the low ceil(b / 8) bytes of a code word hold code bits
        low = code.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - (b + 7) // 8 :]
        columns = np.unpackbits(low, axis=1)
        for column in range(columns.shape[1] - b, columns.shape[1] - 1):
            pos += 1
            bits[pos] = columns[:, column]
        bits[pos[long_code] + 1] = columns[long_code, -1]
    return np.packbits(bits).tobytes(), m


def decode_sorted(payload: bytes, m: int, count: int) -> List[int]:
    """Decode ``count`` values encoded by :func:`encode_sorted` with parameter ``m``."""
    if m < 1:
        raise ValueError("Golomb parameter must be >= 1")
    reader = _BitReader(payload)
    b, cutoff = _remainder_width(m)
    out: List[int] = []
    prev = 0
    for _ in range(count):
        q = reader.read_unary()
        r = 0
        if m > 1:
            r = reader.read_bits(b - 1)
            if r >= cutoff:
                r = ((r << 1) | reader.read_bit()) - cutoff
        prev += q * m + r
        out.append(prev)
    return out


class GolombCodedSet(WireSized):
    """A sorted integer set stored Golomb-coded, usable as a wire message.

    The constructor accepts the values in any order and sorts them into
    :attr:`values`, a ``uint64`` array; the wire size is the compressed
    payload plus the two varint headers (parameter and element count) a
    real implementation would frame the message with.
    """

    def __init__(self, values: Sequence[int], universe: int):
        self.universe = universe
        self.values = np.sort(as_uint64(values))
        self.payload, self.m = encode_sorted(self.values, universe)

    def decode(self) -> List[int]:
        """Recover the sorted values from the Golomb-coded gap stream."""
        return decode_sorted(self.payload, self.m, len(self.values))

    def wire_bytes(self) -> int:
        """Coded payload plus the varint-framed parameter ``M`` and count."""
        return len(self.payload) + varint_size(self.m) + varint_size(len(self.values))

    def content_crc(self) -> int:
        """CRC32 of what travels: the framing (``M``, count) and the payload."""
        return zlib.crc32(self.payload, zlib.crc32(b"G%d;%d;" % (self.m, len(self))))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values.tolist())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GolombCodedSet({len(self.values)} values, m={self.m})"
