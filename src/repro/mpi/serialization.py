"""Wire-size accounting for simulated messages.

The simulated communicator does not need to serialise Python objects to move
them between rank threads — references suffice — but the *byte accounting*
must reflect what a real MPI implementation of the paper's algorithms would
put on the wire, because "bytes sent per string" is the headline metric of
Figures 4 and 5.

The rules implemented here:

* ``bytes``/``bytearray``: payload length plus a varint length header
  (strings are sent without 0 terminators but with explicit lengths, which
  is the convention footnote 1 of the paper allows).
* ``int``: LEB128 varint size — LCP values, counts and string lengths are
  small most of the time and a real implementation would use a variable
  length or bit-packed encoding (Section VI-B discusses exactly this).
* ``float``: 8 bytes.
* ``None``/booleans: 1 byte.
* ``list``/``tuple``: sum of the element sizes (no per-element framing beyond
  what elements themselves carry) plus a varint element count.
* ``numpy.ndarray``: ``arr.nbytes``.
* any object exposing ``wire_bytes()``: that value.  The distributed layer
  uses this hook for LCP-compressed string blocks and Golomb-coded
  fingerprint sets so that their compression is reflected exactly.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Sequence

import numpy as np

from ..strings.packed import PackedStringArray

__all__ = [
    "varint_size",
    "varint_sizes",
    "varint_total",
    "packed_wire_bytes",
    "wire_size",
    "WireSized",
    "CHECKSUM_WIRE_BYTES",
    "payload_checksum",
    "block_checksum",
]

#: wire cost of one CRC32 seal (a fixed-width 4-byte trailer)
CHECKSUM_WIRE_BYTES = 4


class WireSized:
    """Mix-in marking message classes that know their own wire size."""

    def wire_bytes(self) -> int:  # pragma: no cover - interface definition
        """Exact bytes this message would occupy on a real wire."""
        raise NotImplementedError


def varint_size(value: int) -> int:
    """Number of bytes of the LEB128 encoding of ``value`` (>= 0)."""
    if value < 0:
        # zig-zag: one extra bit, same asymptotics; negative values are rare
        value = (-value << 1) | 1
    size = 1
    while value >= 0x80:
        value >>= 7
        size += 1
    return size


def varint_sizes(values: Sequence[int]) -> np.ndarray:
    """Vectorized :func:`varint_size`: per-element LEB128 sizes (``int64``).

    Negative values get the same zig-zag treatment as the scalar function.
    The element-wise results are identical to ``[varint_size(v) for v in
    values]``, which the property tests pin; the hot path uses this over the
    length and LCP arrays of packed string blocks.
    """
    v = np.asarray(values, dtype=np.int64)
    if (v < 0).any():
        # rare path (no hot-path caller passes negatives): the zig-zag
        # transform (-v << 1) | 1 can exceed int64, so do it per element in
        # unbounded Python ints exactly as the scalar function does
        return np.fromiter(
            (varint_size(int(x)) for x in v), dtype=np.int64, count=v.size
        )
    sizes = np.ones(v.shape, dtype=np.int64)
    # int64 values need at most 9 LEB128 bytes (ceil(63/7)); the would-be
    # tenth threshold 2**63 overflows int64 and is unreachable anyway
    for k in range(1, 9):
        more = v >= np.int64(1) << np.int64(7 * k)
        if not more.any():
            break
        sizes += more
    return sizes


def varint_total(values: Sequence[int]) -> int:
    """Sum of the LEB128 sizes of ``values`` (one reduction, no Python loop)."""
    return int(varint_sizes(values).sum())


def packed_wire_bytes(
    packed: PackedStringArray, lcps: Any = None
) -> int:
    """Wire size of a packed string block: count + length headers + payload
    (+ optional LCP varints), the accounting of ``StringBlock``."""
    lengths = packed.lengths
    total = varint_size(len(packed)) + varint_total(lengths) + packed.num_chars
    if lcps is not None:
        total += varint_total(lcps)
    return total


def wire_size(obj: Any) -> int:
    """Wire size in bytes of ``obj`` under the rules documented above."""
    if obj is None:
        return 1
    if isinstance(obj, WireSized):
        return obj.wire_bytes()
    wire = getattr(obj, "wire_bytes", None)
    if callable(wire):
        return int(wire())
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, (bytes, bytearray, memoryview)):
        n = len(obj)
        return n + varint_size(n)
    if isinstance(obj, PackedStringArray):
        # same framing as the equivalent list[bytes]: element count plus a
        # varint length header per string
        return packed_wire_bytes(obj)
    if isinstance(obj, str):
        n = len(obj.encode("utf-8"))
        return n + varint_size(n)
    if isinstance(obj, int):
        return varint_size(obj)
    if isinstance(obj, float):
        return 8
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, np.integer):
        return varint_size(int(obj))
    if isinstance(obj, np.floating):
        return 8
    if isinstance(obj, (list, tuple)):
        return varint_size(len(obj)) + sum(wire_size(x) for x in obj)
    if isinstance(obj, dict):
        return varint_size(len(obj)) + sum(
            wire_size(k) + wire_size(v) for k, v in obj.items()
        )
    raise TypeError(
        f"cannot compute a wire size for objects of type {type(obj).__name__}; "
        "give the message class a wire_bytes() method"
    )


def payload_checksum(obj: Any) -> int:
    """Structural CRC32 of a message payload (content, not object identity).

    The companion of :func:`wire_size` for integrity checking: two payloads
    that would serialise to the same bytes on a real wire checksum equally,
    and any mutation of the *content* — string bytes, lengths, LCP values,
    counts, nesting — changes the result.  Message classes participate by
    exposing a ``content_crc()`` method (the framed blocks of
    :mod:`repro.dist.exchange` and :class:`repro.net.router.RouteFrame` do),
    exactly as ``wire_bytes()`` hooks them into :func:`wire_size`.

    The simulated machine moves objects by reference, so this is how the
    fault layer (:mod:`repro.faults`) detects injected bit-flips without a
    real serialisation round-trip; the 4-byte seal it guards is accounted as
    :data:`CHECKSUM_WIRE_BYTES`.
    """
    return _checksum(obj, 0)


def block_checksum(strings: PackedStringArray, lcps: Any = None) -> int:
    """Bulk CRC32 seal of a packed string block plus optional LCPs.

    The sealing twin of :func:`payload_checksum` for the exchange-block hot
    path: where the generic walker folds one element at a time, this folds
    the whole block in a handful of C-speed operations — the contiguous
    character payload plus the ``int64`` length and LCP arrays.  That is
    what keeps the sealed exchange path inside the perf-smoke overhead gate
    (< 5% over unsealed).  The LCPs fold as an ``int64`` array whether
    given as a list or an ``ndarray``.  Any content mutation — string
    bytes, a length, an LCP, the count, the order — changes the result.
    """
    crc = _checksum(strings, 0)
    if lcps is None:
        return zlib.crc32(b"N", crc)
    arr = np.asarray(lcps, dtype=np.int64)
    crc = zlib.crc32(b"A" + str(arr.dtype).encode("ascii") + b";", crc)
    return zlib.crc32(np.ascontiguousarray(arr), crc)


def _checksum(obj: Any, crc: int) -> int:
    """Fold ``obj``'s content into the running CRC32 ``crc`` (type-tagged)."""
    if obj is None:
        return zlib.crc32(b"N", crc)
    content = getattr(obj, "content_crc", None)
    if callable(content):
        return zlib.crc32(b"C" + int(content()).to_bytes(4, "little"), crc)
    if isinstance(obj, bool):
        return zlib.crc32(b"T" if obj else b"F", crc)
    if isinstance(obj, (bytes, bytearray)):
        crc = zlib.crc32(b"B" + len(obj).to_bytes(8, "little"), crc)
        return zlib.crc32(obj, crc)
    if isinstance(obj, memoryview):
        crc = zlib.crc32(b"B" + len(obj).to_bytes(8, "little"), crc)
        return zlib.crc32(bytes(obj), crc)
    if isinstance(obj, PackedStringArray):
        base, end = int(obj.offsets[0]), int(obj.offsets[-1])
        crc = zlib.crc32(b"P" + len(obj).to_bytes(8, "little"), crc)
        crc = zlib.crc32(np.ascontiguousarray(obj.buffer[base:end]), crc)
        return zlib.crc32(np.ascontiguousarray(obj.lengths), crc)
    if isinstance(obj, str):
        raw = obj.encode("utf-8")
        crc = zlib.crc32(b"S" + len(raw).to_bytes(8, "little"), crc)
        return zlib.crc32(raw, crc)
    if isinstance(obj, (int, np.integer)):
        raw = str(int(obj)).encode("ascii")
        return zlib.crc32(b"I" + raw + b";", crc)
    if isinstance(obj, (float, np.floating)):
        return zlib.crc32(b"D" + struct.pack("<d", float(obj)), crc)
    if isinstance(obj, np.ndarray):
        crc = zlib.crc32(b"A" + str(obj.dtype).encode("ascii") + b";", crc)
        return zlib.crc32(np.ascontiguousarray(obj), crc)
    if isinstance(obj, (list, tuple)):
        crc = zlib.crc32(b"L" + len(obj).to_bytes(8, "little"), crc)
        for x in obj:
            crc = _checksum(x, crc)
        return crc
    if isinstance(obj, dict):
        crc = zlib.crc32(b"M" + len(obj).to_bytes(8, "little"), crc)
        for k, v in obj.items():
            crc = _checksum(k, crc)
            crc = _checksum(v, crc)
        return crc
    raise TypeError(
        f"cannot checksum objects of type {type(obj).__name__}; "
        "give the message class a content_crc() method"
    )
