"""Distributed duplicate detection on prefix fingerprints (Section VI).

The prefix-doubling algorithms never compare prefixes directly; they hash
each candidate prefix to a fixed-width *fingerprint* and ask the machine a
multiset question: which of my fingerprints occur exactly once globally?

:func:`find_unique_fingerprints` answers it with the classic two-phase
exchange: fingerprints are range-partitioned to home PEs (so every home PE
sees all copies of a value), counted there, and a bit vector of verdicts
travels back.  With ``golomb=True`` each fingerprint message is sent as a
Golomb-coded sorted set whenever that is smaller than the plain fixed-width
array — the PDMS-Golomb optimisation of Section VI-B.

A false *duplicate* verdict (fingerprint collision) merely makes the caller
keep a string active for another doubling round — an overestimate, which the
DIST approximation tolerates by design.  A false *unique* verdict is
impossible: equal prefixes always hash equally.

Layout: one round is array-native.  Fingerprints are a ``uint64`` array from
:func:`prefix_fingerprints` to the verdicts: one stable ``argsort`` plus a
``searchsorted`` on the PE bases range-partitions them, :class:`FingerprintBlock`
and :class:`~repro.dist.golomb.GolombCodedSet` own ``uint64`` value arrays,
home PEs count with ``np.unique``, :class:`BitVector` owns the verdicts as
``np.packbits`` bytes, and the saved permutation scatters them back into the
``bool`` array of :func:`unique_fingerprint_mask` (what the doubling loop
consumes; :func:`find_unique_fingerprints` is its ``List[bool]`` form).
"""

from __future__ import annotations

import hashlib
import zlib
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from ..mpi.comm import Communicator
from ..mpi.serialization import WireSized, varint_size
from .golomb import GolombCodedSet, as_uint64

__all__ = [
    "prefix_fingerprint",
    "prefix_fingerprints",
    "FingerprintBlock",
    "BitVector",
    "find_unique_fingerprints",
    "unique_fingerprint_mask",
]


def prefix_fingerprints(
    prefixes: Iterable[bytes], salt: int = 0, bits: int = 64
) -> np.ndarray:
    """Deterministic ``bits``-wide fingerprints of string prefixes (``uint64``).

    ``salt`` decouples the hash functions of different doubling rounds so a
    collision in one round cannot persist into the next.  It keys one
    ``blake2b`` state per call, and each prefix hashes a copy of that state.
    """
    if not 1 <= bits <= 64:
        raise ValueError("bits must be in [1, 64]")
    copy = hashlib.blake2b(digest_size=8, key=salt.to_bytes(8, "little", signed=True)).copy
    digests = []
    for prefix in prefixes:
        state = copy()
        state.update(prefix)
        digests.append(state.digest())
    wide = np.frombuffer(b"".join(digests), dtype=">u8").astype(np.uint64)
    return wide & np.uint64((1 << bits) - 1)


def prefix_fingerprint(prefix: bytes, salt: int = 0, bits: int = 64) -> int:
    """The fingerprint of one prefix, as a Python int."""
    return int(prefix_fingerprints((prefix,), salt, bits)[0])


class FingerprintBlock(WireSized):
    """A plain ``uint64`` array of fingerprints: fixed ``bits`` each on the wire."""

    def __init__(self, values: Sequence[int], bits: int = 64):
        self.values = as_uint64(values)
        self.bits = bits

    def wire_bytes(self) -> int:
        """Uncompressed fingerprint cost: a varint count plus ``bits`` each."""
        return varint_size(len(self.values)) + len(self.values) * ((self.bits + 7) // 8)

    def content_crc(self) -> int:
        """CRC32 of the width, the count and the value array."""
        tag = zlib.crc32(b"F%d;%d;" % (self.bits, len(self)))
        return zlib.crc32(np.ascontiguousarray(self.values), tag)

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

    def content_crc(self) -> int:
        """CRC32 of the count and the packed bits."""
        return zlib.crc32(self.packed, zlib.crc32(b"V%d;" % self.count))

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[bool]:
        return iter(self.flags.tolist())

    def __getitem__(self, index: int) -> bool:
        return bool(self.flags[index])


def find_unique_fingerprints(
    comm: Communicator,
    fingerprints: Sequence[int],
    bits: int = 64,
    golomb: bool = False,
    phase: Optional[str] = None,
) -> List[bool]:
    """Per-fingerprint verdicts: is this value globally unique?

    Verdicts come back in the order of ``fingerprints`` (a sequence of ints
    or a ``uint64`` array).  Values must fit in ``bits`` bits.
    ``golomb=True`` enables the compressed message format (the smaller of
    Golomb-coded and plain is chosen per message, as a real implementation
    would).  ``phase`` overrides the accounting phase label.
    """
    return unique_fingerprint_mask(comm, fingerprints, bits, golomb, phase).tolist()


def unique_fingerprint_mask(
    comm: Communicator,
    fingerprints: Sequence[int],
    bits: int = 64,
    golomb: bool = False,
    phase: Optional[str] = None,
) -> np.ndarray:
    """:func:`find_unique_fingerprints` with the verdicts as a ``bool`` array."""
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
        # range-partition values to home PEs; home PE d owns the slice
        # [ceil(d*limit/p), ceil((d+1)*limit/p)).  Values are sent relative
        # to the slice base, which keeps Golomb deltas small; equality is
        # preserved because all copies of a value share a home (and base).
        bases = np.array([-(-d * limit // p) for d in range(p)], dtype=np.uint64)
        order = np.argsort(fps, kind="stable")
        ordered = fps[order]
        bounds = np.append(np.searchsorted(ordered, bases), fps.size).tolist()

        slice_span = limit // p + 1
        messages = []
        for dest in range(p):
            values = ordered[bounds[dest] : bounds[dest + 1]] - bases[dest]
            message: WireSized = FingerprintBlock(values, bits)
            if golomb:
                coded = GolombCodedSet(values, universe=slice_span)
                if coded.wire_bytes() < message.wire_bytes():
                    message = coded
            messages.append(message)

        received = comm.alltoall(messages)
        # every copy of a value arrives here, so its global count is local
        _, inverse, counts = np.unique(
            np.concatenate([msg.values for msg in received]),
            return_inverse=True,
            return_counts=True,
        )
        cuts = np.cumsum([len(msg) for msg in received])[:-1]
        replies = [BitVector(flags) for flags in np.split(counts[inverse] == 1, cuts)]
        verdicts_home = comm.alltoall(replies)

        # the messages were cut from ``ordered`` in PE order, so the replies
        # concatenate to verdicts in sorted order; undo the permutation
        out = np.empty(fps.size, dtype=bool)
        out[order] = np.concatenate([reply.flags for reply in verdicts_home])
    return out
