"""The all-to-all string exchange (Section V, Step 3).

Each PE cuts its locally sorted array into ``p`` buckets and delivers bucket
``j`` to PE ``j`` in one personalised all-to-all.  Two message formats are
available:

* :class:`StringBlock` — strings verbatim, each with a varint length header
  (MS-simple; an LCP array may optionally ride along);
* :class:`LcpCompressedBlock` — LCP front coding: the first string travels
  in full, every following string only as its suffix past the LCP with its
  predecessor (MS, PDMS).  The receiver reconstructs the full strings from
  the previous string and the LCP value, so the LCP array rides along for
  free *and* pays for itself.

Both classes implement ``wire_bytes`` so the traffic meter charges exactly
what a real implementation would put on the wire; the Python objects
themselves move by reference inside the simulated machine.

Both classes are **dual-backed**: constructed from a
:class:`repro.strings.packed.PackedStringArray` bucket (the hot path) all
encoding, wire accounting and decoding run as vectorized numpy kernels over
the contiguous byte buffer; constructed from ``list[bytes]`` the original
scalar code runs.  Wire sizes and decoded contents are bit-identical either
way — the benchmark suite pins this across all six algorithms.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..faults.errors import CorruptFrameError
from ..mpi.comm import Communicator
from ..mpi.serialization import (
    CHECKSUM_WIRE_BYTES,
    WireSized,
    block_checksum,
    packed_wire_bytes,
    varint_size,
    varint_total,
    wire_size,
)
from ..net.router import ExchangeTopology, resolve_topology, routed_exchange
from ..strings.lcp import lcp_array
from ..strings.packed import (
    PackedStringArray,
    front_code,
    packed_lcp_array,
)

__all__ = [
    "StringBlock",
    "LcpCompressedBlock",
    "exchange_buckets",
]

Strings = Union[Sequence[bytes], PackedStringArray]
Lcps = Union[Sequence[int], np.ndarray, None]


class StringBlock(WireSized):
    """One bucket sent verbatim, optionally together with its LCP array.

    With ``seal`` (the exchange passes ``comm.config.wire_checksums``) the
    block is *sealed* at construction: a CRC32 of its content travels with
    it (4 extra wire bytes) and :meth:`decode` / :meth:`decode_run` verify
    the seal, raising :class:`~repro.faults.errors.CorruptFrameError` on
    mismatch.
    """

    def __init__(self, strings: Strings, lcps: Lcps = None, seal: bool = False):
        if lcps is not None and len(strings) != len(lcps):
            raise ValueError("strings and lcps must have equal length")
        if isinstance(strings, PackedStringArray):
            self._packed: Optional[PackedStringArray] = strings
            self.strings: Sequence[bytes] = strings
            self.lcps = None if lcps is None else np.asarray(lcps, dtype=np.int64)
        else:
            self._packed = None
            self.strings = list(strings)
            self.lcps = list(lcps) if lcps is not None else None
        self._crc: Optional[int] = self._compute_crc() if seal else None

    def _compute_crc(self) -> int:
        """CRC32 of the block's content, recomputed from scratch (bulk)."""
        content = self._packed if self._packed is not None else self.strings
        return block_checksum(content, self.lcps)

    def content_crc(self) -> int:
        """The checksum the envelope layer folds in (the seal, or fresh)."""
        return self._crc if self._crc is not None else self._compute_crc()

    def _verify_seal(self) -> None:
        if self._crc is not None and self._compute_crc() != self._crc:
            raise CorruptFrameError(
                "StringBlock checksum mismatch: block content does not match "
                "its seal (frame corrupted in transit)"
            )

    def decode(self) -> Tuple[List[bytes], List[int]]:
        """``(strings, lcps)``; the LCP array is recomputed when not shipped."""
        self._verify_seal()
        if self._packed is not None:
            strings = self._packed.to_list()
            if self.lcps is not None:
                return strings, self.lcps.tolist()
            return strings, packed_lcp_array(self._packed).tolist()
        strings = list(self.strings)
        lcps = list(self.lcps) if self.lcps is not None else lcp_array(strings)
        return strings, lcps

    def decode_run(self) -> Tuple[Strings, Lcps]:
        """Decode to the natural representation of the sent bucket.

        A packed-backed block yields its :class:`PackedStringArray` and an
        ``int64`` LCP array **without materialising** ``list[bytes]`` — the
        downstream local sort and merge consume the packed run directly.  A
        list-backed block behaves exactly like :meth:`decode`.  Contents are
        bit-identical either way.
        """
        self._verify_seal()
        if self._packed is not None:
            if self.lcps is not None:
                return self._packed, self.lcps
            return self._packed, packed_lcp_array(self._packed)
        return self.decode()

    def wire_bytes(self) -> int:
        """Varint count + per-string (varint length, payload) [+ varint LCPs].

        A sealed block additionally carries its 4-byte CRC32 on the wire.
        """
        seal = CHECKSUM_WIRE_BYTES if self._crc is not None else 0
        if self._packed is not None:
            return packed_wire_bytes(self._packed, self.lcps) + seal
        total = varint_size(len(self.strings))
        for s in self.strings:
            total += varint_size(len(s)) + len(s)
        if self.lcps is not None:
            total += sum(varint_size(h) for h in self.lcps)
        return total + seal


class LcpCompressedBlock(WireSized):
    """One bucket with LCP front coding: ``(lcp, suffix-past-lcp)`` per string.

    Like :class:`StringBlock`, the block is sealed with a content CRC32 when
    built with ``seal``, verified at decode time (4 extra wire bytes;
    :class:`~repro.faults.errors.CorruptFrameError` on mismatch).  The seal
    covers the front-coded wire form — LCPs and suffixes — not the
    zero-copy ``original`` reference.
    """

    def __init__(self, entries: Sequence[Tuple[int, bytes]], seal: bool = False):
        self.entries: Optional[List[Tuple[int, bytes]]] = list(entries)
        self._lcps: Optional[np.ndarray] = None
        self._suffixes: Optional[PackedStringArray] = None
        self._original: Optional[PackedStringArray] = None
        self._crc: Optional[int] = self._compute_crc() if seal else None

    def _compute_crc(self) -> int:
        """CRC32 of the front-coded wire content, recomputed from scratch.

        Folds the suffix payload and the LCP array in bulk
        (:func:`block_checksum`), so a packed-backed and an entry-backed
        block with the same front-coded content seal identically.
        """
        if self._suffixes is not None:
            return block_checksum(self._suffixes, self._lcps)
        if not self.entries:
            return block_checksum((), np.zeros(0, dtype=np.int64))
        lcps, suffixes = zip(*self.entries)
        return block_checksum(
            suffixes, np.fromiter(lcps, dtype=np.int64, count=len(suffixes))
        )

    def content_crc(self) -> int:
        """The checksum the envelope layer folds in (the seal, or fresh)."""
        return self._crc if self._crc is not None else self._compute_crc()

    def _verify_seal(self) -> None:
        if self._crc is not None and self._compute_crc() != self._crc:
            raise CorruptFrameError(
                "LcpCompressedBlock checksum mismatch: block content does "
                "not match its seal (frame corrupted in transit)"
            )

    @classmethod
    def encode(
        cls, strings: Strings, lcps: Lcps, seal: bool = False
    ) -> "LcpCompressedBlock":
        """Front-code a sorted run with its LCP array (sealed with ``seal``).

        The first string always travels in full; LCP values are clipped
        defensively (an LCP can never exceed either neighbour).  Packed
        buckets are encoded by the batched :func:`repro.strings.packed.front_code`
        kernel — one gather builds the whole suffix buffer.
        """
        if len(strings) != len(lcps):
            raise ValueError("strings and lcps must have equal length")
        if isinstance(strings, PackedStringArray):
            # keep a reference to the encoded run: the simulated machine
            # delivers messages zero-copy (exactly as StringBlock does), so
            # the receiver charges wire bytes for the front-coded form but
            # does not redo the byte-level reconstruction that
            # :func:`front_decode` implements (and the tests pin)
            blk = cls.__new__(cls)
            blk.entries = None
            blk._lcps, blk._suffixes = front_code(strings, lcps)
            blk._original = strings
            blk._crc = blk._compute_crc() if seal else None
            return blk
        entries: List[Tuple[int, bytes]] = []
        prev_len = 0
        for i, (s, h) in enumerate(zip(strings, lcps)):
            h = 0 if i == 0 else min(h, len(s), prev_len)
            entries.append((h, s[h:]))
            prev_len = len(s)
        return cls(entries, seal)

    def __len__(self) -> int:
        if self._suffixes is not None:
            return len(self._suffixes)
        return len(self.entries)

    @property
    def chars_sent(self) -> int:
        """Characters on the wire after front coding (suffixes only)."""
        if self._suffixes is not None:
            return self._suffixes.num_chars
        return sum(len(suffix) for _, suffix in self.entries)

    def decode(self) -> Tuple[List[bytes], List[int]]:
        """Reconstruct ``(strings, lcps)`` from the front-coded entries."""
        self._verify_seal()
        if self._original is not None:
            return self._original.to_list(), self._lcps.tolist()
        strings: List[bytes] = []
        lcps: List[int] = []
        prev = b""
        for h, suffix in self.entries:
            if h > len(prev):
                raise ValueError(
                    f"corrupt LCP-compressed block: LCP {h} exceeds the "
                    f"previous string's length {len(prev)}"
                )
            s = prev[:h] + suffix
            strings.append(s)
            lcps.append(h)
            prev = s
        return strings, lcps

    def decode_run(self) -> Tuple[Strings, Lcps]:
        """Decode to the natural representation of the sent bucket.

        A packed-backed block yields the sent :class:`PackedStringArray`
        (delivered zero-copy) plus the ``int64`` LCP array **without
        materialising** ``list[bytes]``.  An entry-backed block behaves
        exactly like :meth:`decode`.
        """
        self._verify_seal()
        if self._original is not None:
            return self._original, self._lcps
        return self.decode()

    def wire_bytes(self) -> int:
        """Varint count + per-string (varint LCP, varint suffix length, suffix).

        A sealed block additionally carries its 4-byte CRC32 on the wire.
        """
        seal = CHECKSUM_WIRE_BYTES if self._crc is not None else 0
        if self._suffixes is not None:
            return (
                varint_size(len(self._suffixes))
                + varint_total(self._lcps)
                + varint_total(self._suffixes.lengths)
                + self._suffixes.num_chars
                + seal
            )
        total = varint_size(len(self.entries))
        for h, suffix in self.entries:
            total += varint_size(h) + varint_size(len(suffix)) + len(suffix)
        return total + seal


def exchange_buckets(
    comm: Communicator,
    buckets: Sequence[Tuple[Strings, Lcps]],
    lcp_compression: bool = False,
    payloads: Optional[Sequence[Any]] = None,
    ship_lcps: bool = True,
    topology: Union[str, ExchangeTopology, None] = None,
):
    """Deliver bucket ``j`` to PE ``j``; return the received runs.

    ``buckets`` must contain exactly ``comm.size`` ``(strings, lcps)`` pairs
    (either ``list[bytes]`` + ``list[int]`` or packed arrays + ``int64``
    arrays).  The return value has one entry per *source* PE:
    ``(strings, lcps)`` tuples, or ``(strings, lcps, payload)`` when
    ``payloads`` supplies one extra (wire-accounted) object per destination —
    PDMS uses this to ship each bucket's origin offset alongside the
    prefixes.

    Without ``lcp_compression`` the caller's LCP arrays ride along as varints
    (``ship_lcps=True``, the default) instead of being silently dropped and
    recomputed O(N) at the receiver.  Baselines that genuinely have no LCP
    machinery on the wire (FKmerge, MS-simple) pass ``ship_lcps=False`` to
    keep their message format — and their measured traffic — faithful to the
    paper; their receivers then recompute the LCP arrays locally.

    ``topology`` selects the delivery strategy (Section II): ``"direct"``
    (one message per destination — the default), ``"hypercube"`` or
    ``"grid"`` (multi-level store-and-forward routing through
    :mod:`repro.net.router`), or ``None`` for the run's setting
    (``comm.config.exchange_topology``).  Routing changes startup counts and the
    measured total volume (forwarded bytes are attributed separately) but
    never the decoded runs or the origin wire bytes.
    """
    if len(buckets) != comm.size:
        raise ValueError(
            f"need one bucket per PE ({comm.size}), got {len(buckets)}"
        )
    if payloads is not None and len(payloads) != comm.size:
        raise ValueError("payloads must have one entry per PE")
    topo = resolve_topology(topology, comm)
    seal = comm.config.wire_checksums

    with comm.phase("exchange"):
        if lcp_compression:
            blocks: List[WireSized] = [
                LcpCompressedBlock.encode(strings, lcps, seal)
                for strings, lcps in buckets
            ]
        else:
            blocks = [
                StringBlock(strings, lcps if ship_lcps else None, seal)
                for strings, lcps in buckets
            ]
        if payloads is None:
            messages: List[Any] = list(blocks)
        else:
            messages = [(blk, pay) for blk, pay in zip(blocks, payloads)]
        if topo.is_direct:
            received = comm.alltoall(messages)
        else:
            sizes = [wire_size(m) for m in messages]
            received = routed_exchange(comm, topo, messages, sizes)

        out = []
        decoded_chars = 0
        for message in received:
            if payloads is None:
                block, payload = message, None
            else:
                block, payload = message
            strings, lcps = block.decode_run()
            if isinstance(strings, PackedStringArray):
                decoded_chars += strings.num_chars
            else:
                decoded_chars += sum(len(s) for s in strings)
            out.append(
                (strings, lcps) if payloads is None else (strings, lcps, payload)
            )
        comm.record_local_work(decoded_chars, sum(len(r[0]) for r in out))
    return out
