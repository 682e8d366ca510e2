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
themselves move by reference inside the simulated machine.  So the
front-coded form is accounted, never built: its byte count is a sum over
the run's lengths and clipped LCPs, and the receiver takes the sent run.

Both classes hold one packed run: a
:class:`repro.strings.packed.PackedStringArray` plus an ``int64`` LCP array.
A ``list[bytes]`` bucket is packed once at construction; a packed bucket
(what the rank programs cut) is held zero-copy.  Wire accounting, sealing
and decoding run as vectorized numpy kernels over the contiguous buffer.
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
from ..strings.packed import PackedStringArray, clip_lcps

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
    it (4 extra wire bytes) and :meth:`decode_run` verifies the seal,
    raising :class:`~repro.faults.errors.CorruptFrameError` on mismatch.
    """

    def __init__(self, strings: Strings, lcps: Lcps = None, seal: bool = False):
        if lcps is not None and len(strings) != len(lcps):
            raise ValueError("strings and lcps must have equal length")
        self.strings = PackedStringArray.from_strings(strings)
        self.lcps = None if lcps is None else np.asarray(lcps, dtype=np.int64)
        self._crc: Optional[int] = self._compute_crc() if seal else None

    def _compute_crc(self) -> int:
        """CRC32 of the block's content, recomputed from scratch (bulk)."""
        return block_checksum(self.strings, self.lcps)

    def content_crc(self) -> int:
        """The checksum the envelope layer folds in (the seal, or fresh)."""
        return self._crc if self._crc is not None else self._compute_crc()

    def _verify_seal(self) -> None:
        if self._crc is not None and self._compute_crc() != self._crc:
            raise CorruptFrameError(
                "StringBlock checksum mismatch: block content does not match "
                "its seal (frame corrupted in transit)"
            )

    def decode_run(self) -> Tuple[PackedStringArray, Optional[np.ndarray]]:
        """The sent run and its shipped ``int64`` LCP array (``None`` if none).

        The run is handed over without materialising ``list[bytes]``: the
        downstream merge consumes it directly.
        """
        self._verify_seal()
        return self.strings, self.lcps

    def wire_bytes(self) -> int:
        """Varint count + per-string (varint length, payload) [+ varint LCPs].

        A sealed block additionally carries its 4-byte CRC32 on the wire.
        """
        seal = CHECKSUM_WIRE_BYTES if self._crc is not None else 0
        return packed_wire_bytes(self.strings, self.lcps) + seal


class LcpCompressedBlock(WireSized):
    """One bucket with LCP front coding: ``(lcp, suffix-past-lcp)`` per string.

    Built by :meth:`encode`, the block holds the sent run and its clipped
    LCP array — nothing else.  The front-coded form is a pure function of
    the two, so the block never builds it: :attr:`chars_sent` and
    :meth:`wire_bytes` count it from the length and LCP arrays, and the
    receiver takes the run zero-copy.  Like :class:`StringBlock`, the block
    is sealed with a content CRC32 when built with ``seal``, verified at
    decode time (4 extra wire bytes;
    :class:`~repro.faults.errors.CorruptFrameError` on mismatch).  The seal
    covers the run's characters, its lengths and its clipped LCPs: all that
    the suffix form is computed from.
    """

    def __init__(self, run: PackedStringArray, lcps: np.ndarray, seal: bool = False):
        self._run = run
        self._lcps = lcps
        self._crc: Optional[int] = self._compute_crc() if seal else None

    def _compute_crc(self) -> int:
        """CRC32 of the run and its clipped LCPs (bulk)."""
        return block_checksum(self._run, self._lcps)

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
        defensively (an LCP can never exceed either neighbour) by
        :func:`repro.strings.packed.clip_lcps`.  That clip is the whole
        encoding: no suffix byte is gathered, since the simulated machine
        delivers the run by reference and the wire form is accounted from
        the arrays.
        """
        run = PackedStringArray.from_strings(strings)
        return cls(run, clip_lcps(run, lcps), seal)

    def __len__(self) -> int:
        return len(self._run)

    @property
    def chars_sent(self) -> int:
        """Characters on the wire after front coding (suffixes only)."""
        return self._run.num_chars - int(self._lcps.sum())

    def decode_run(self) -> Tuple[PackedStringArray, np.ndarray]:
        """The sent run (delivered zero-copy) and its ``int64`` LCP array."""
        self._verify_seal()
        return self._run, self._lcps

    def wire_bytes(self) -> int:
        """Varint count + per-string (varint LCP, varint suffix length, suffix).

        A sealed block additionally carries its 4-byte CRC32 on the wire.
        """
        seal = CHECKSUM_WIRE_BYTES if self._crc is not None else 0
        return (
            varint_size(len(self._run))
            + varint_total(self._lcps)
            + varint_total(self._run.lengths - self._lcps)
            + self.chars_sent
            + seal
        )


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
    (packed arrays + ``int64`` arrays; a ``list[bytes]`` bucket is packed
    once).  The return value has one entry per *source* PE: packed
    ``(strings, lcps)`` tuples, or ``(strings, lcps, payload)`` when
    ``payloads`` supplies one extra (wire-accounted) object per destination —
    PDMS uses this to ship each bucket's origin offset alongside the
    prefixes.

    Without ``lcp_compression`` the caller's LCP arrays ride along as varints
    (``ship_lcps=True``, the default).  Baselines that genuinely have no LCP
    machinery on the wire (FKmerge, MS-simple) pass ``ship_lcps=False`` to
    keep their message format — and their measured traffic — faithful to the
    paper, and receive ``None`` in place of LCP arrays (their merge reads none).

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
            decoded_chars += strings.num_chars
            out.append(
                (strings, lcps) if payloads is None else (strings, lcps, payload)
            )
        comm.record_local_work(decoded_chars, sum(len(r[0]) for r in out))
    return out
