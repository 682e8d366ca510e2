"""Reference Golomb coder and decoder: the oracle of PDMS-Golomb's wire size.

:class:`repro.dist.golomb.GolombCodedSet` never builds its bit stream: it
counts the coded bits in closed form from the gaps of its values.  This
module is the coder a real implementation would run, kept as the reference
the tests pin that count (and the goldens) against:

* :func:`encode_sorted` — lays every code word out in one bit array over
  the ``uint64`` gaps and packs it, MSB first;
* :func:`decode_sorted` — the bit-at-a-time receiver on Python ints.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.dist.golomb import as_uint64, golomb_parameter, remainder_width

__all__ = ["encode_sorted", "decode_sorted"]


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
    b, cutoff = remainder_width(m)
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
    b, cutoff = remainder_width(m)
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
