"""Golomb-coded sorted integer sets, sized in closed form (Section VI-B).

PDMS-Golomb communicates *sorted* sets of fingerprints.  A sorted set of
``n`` values from a universe of size ``u`` can be delta-encoded: the gaps
between consecutive values are geometrically distributed with mean ``u/n``,
for which a Golomb code with parameter ``M ≈ ln(2) · u/n`` is the optimal
prefix-free code.  Every value then costs roughly ``log2(u/n) + 1.5`` bits
instead of the fixed ``log2 u`` bits of a plain fingerprint array — the
denser the set, the bigger the saving.

The code is the classic Golomb construction: a gap ``d = q·M + r`` is
written as ``q`` one-bits and a zero (the unary quotient) followed by the
truncated-binary remainder, ``b - 1`` bits if ``r < cutoff`` and ``b`` bits
otherwise, with ``b = ceil(log2 M)`` and ``cutoff = 2**b - M``.  Repeated
values (gap 0) are legal.

The simulated receiver reads :attr:`GolombCodedSet.values`, so the set never
builds its bit stream: :func:`coded_sizes` counts it from the gaps as
``Σq + n·b + #{r ≥ cutoff}`` bits (``Σq + n`` for ``M = 1``, where ``b``
and ``cutoff`` are 0), for many sets in one pass.  Values are one
``uint64`` array end to end, so universes up to ``2**64`` are exact.  The
bit coder itself is a test oracle (``tests/oracles/golomb.py``) that pins
every counted size to the encoded bytes.
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
    "coded_sizes",
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


def remainder_width(m: int) -> Tuple[int, int]:
    """``(b, cutoff)`` of the truncated-binary remainder code for parameter ``m``."""
    b = (m - 1).bit_length()
    return b, (1 << b) - m


def coded_sizes(values: np.ndarray, counts: Sequence[int], ms: Sequence[int]) -> List[int]:
    """Wire bytes of consecutive Golomb-coded sets, counted in one pass.

    Set ``k`` is the next ``counts[k]`` entries of the ``uint64`` array
    ``values``, sorted, coded with parameter ``ms[k]`` and framed by the
    varints of ``M`` and the count.  A gap ``d = q·M + r`` costs ``q + b``
    bits, one more if ``r ≥ cutoff``: the per-gap lengths are summed per set
    by one ``np.add.reduceat``.
    """
    codes = np.array([(m, *remainder_width(m)) for m in ms], dtype=np.uint64)
    per_set = np.array(counts, dtype=np.int64)
    filled = per_set > 0
    firsts = (np.cumsum(per_set) - per_set)[filled]
    gaps = np.diff(values, prepend=np.uint64(0))
    gaps[firsts] = values[firsts]  # a set's first gap is from 0
    m_each, b_each, cutoff_each = np.repeat(codes, per_set, axis=0).T
    q = gaps // m_each
    code_bits = q + b_each + (gaps - q * m_each >= cutoff_each)
    bits = np.zeros(per_set.size, dtype=np.uint64)
    bits[filled] = np.add.reduceat(code_bits, firsts)
    return [
        -(-nbits // 8) + varint_size(m) + varint_size(n)
        for nbits, m, n in zip(bits.tolist(), ms, counts)
    ]


class GolombCodedSet(WireSized):
    """A sorted integer set sent Golomb-coded, usable as a wire message.

    The constructor accepts the values in any order and sorts them into
    :attr:`values`, a ``uint64`` array; :attr:`m` is the code parameter.  The
    wire size is the coded payload, counted by :func:`coded_sizes`, plus the
    two varint headers (parameter and element count) a real implementation
    would frame the message with.
    """

    def __init__(self, values: Sequence[int], universe: int):
        self.values = np.sort(as_uint64(values))
        self.m = golomb_parameter(universe, self.values.size)

    def wire_bytes(self) -> int:
        """Coded payload plus the varint-framed parameter ``M`` and count."""
        return coded_sizes(self.values, [len(self.values)], [self.m])[0]

    def content_crc(self) -> int:
        """CRC32 of what the payload is a function of: ``M``, the count and the values."""
        tag = zlib.crc32(b"G%d;%d;" % (self.m, len(self)))
        return zlib.crc32(np.ascontiguousarray(self.values), tag)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values.tolist())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GolombCodedSet({len(self.values)} values, m={self.m})"
