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
]


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
