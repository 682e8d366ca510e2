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

import os
import time
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..faults.checksum import (
    CHECKSUM_WIRE_BYTES,
    block_checksum,
    wire_checksums_enabled,
)
from ..faults.errors import CorruptFrameError
from ..mpi.comm import Communicator, waitany
from ..mpi.serialization import (
    WireSized,
    packed_wire_bytes,
    varint_size,
    varint_total,
    wire_size,
)
from ..net.router import (
    ExchangeTopology,
    exchange_topology_name,
    resolve_topology,
    routed_exchange,
    routed_exchange_iter,
    set_exchange_topology,
    use_exchange_topology,
)
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
    "exchange_buckets_async",
    "async_exchange_enabled",
    "set_async_exchange",
    "use_async_exchange",
    "exchange_topology_name",
    "set_exchange_topology",
    "use_exchange_topology",
]

# tag base for the split-phase exchange, outside the ranges hquick claims
# (100/200/300 + dimension), so mixed SPMD programs keep the engine's
# tag-ordering diagnostics meaningful
_TAG_ASYNC_EXCHANGE = 450

_ASYNC_ENABLED = os.environ.get("REPRO_ASYNC_EXCHANGE", "0").strip().lower() in (
    "1",
    "true",
    "yes",
    "on",
)


def async_exchange_enabled() -> bool:
    """Whether the rank programs in :mod:`repro.dist.api` exchange split-phase.

    Defaults to the ``REPRO_ASYNC_EXCHANGE`` environment variable (off unless
    set to ``1``/``true``/``yes``/``on``).  The toggle changes *when* work
    happens, never *what* is computed: outputs, LCP arrays and wire-byte
    accounting are bit-identical either way (pinned by
    ``tests/test_async_exchange.py`` across all six algorithms).
    """
    return _ASYNC_ENABLED


def set_async_exchange(flag: bool) -> bool:
    """Enable/disable the split-phase exchange; returns the previous setting."""
    global _ASYNC_ENABLED
    previous = _ASYNC_ENABLED
    _ASYNC_ENABLED = bool(flag)
    return previous


@contextmanager
def use_async_exchange(flag: bool):
    """Context manager form of :func:`set_async_exchange` (for tests/benchmarks)."""
    previous = set_async_exchange(flag)
    try:
        yield
    finally:
        set_async_exchange(previous)

Strings = Union[Sequence[bytes], PackedStringArray]
Lcps = Union[Sequence[int], np.ndarray, None]


class StringBlock(WireSized):
    """One bucket sent verbatim, optionally together with its LCP array.

    When wire checksums are enabled (``REPRO_WIRE_CHECKSUMS`` /
    :func:`repro.faults.set_wire_checksums`) the block is *sealed* at
    construction: a CRC32 of its content travels with it (4 extra wire
    bytes) and :meth:`decode` / :meth:`decode_run` verify the seal, raising
    :class:`~repro.faults.errors.CorruptFrameError` on mismatch.
    """

    def __init__(self, strings: Strings, lcps: Lcps = None):
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
        self._crc: Optional[int] = (
            self._compute_crc() if wire_checksums_enabled() else None
        )

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
    wire checksums are enabled, verified at decode time (4 extra wire bytes;
    :class:`~repro.faults.errors.CorruptFrameError` on mismatch).  The seal
    covers the front-coded wire form — LCPs and suffixes — not the
    zero-copy ``original`` reference.
    """

    def __init__(self, entries: Sequence[Tuple[int, bytes]]):
        self.entries: Optional[List[Tuple[int, bytes]]] = list(entries)
        self._lcps: Optional[np.ndarray] = None
        self._suffixes: Optional[PackedStringArray] = None
        self._original: Optional[PackedStringArray] = None
        self._crc: Optional[int] = (
            self._compute_crc() if wire_checksums_enabled() else None
        )

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
    def encode(cls, strings: Strings, lcps: Lcps) -> "LcpCompressedBlock":
        """Front-code a sorted run with its LCP array.

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
            blk._crc = blk._compute_crc() if wire_checksums_enabled() else None
            return blk
        entries: List[Tuple[int, bytes]] = []
        prev_len = 0
        for i, (s, h) in enumerate(zip(strings, lcps)):
            h = 0 if i == 0 else min(h, len(s), prev_len)
            entries.append((h, s[h:]))
            prev_len = len(s)
        return cls(entries)

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


def _run_chars(strings: Strings) -> int:
    """Total characters of a decoded run (packed or list) for work accounting."""
    if isinstance(strings, PackedStringArray):
        return strings.num_chars
    return sum(len(s) for s in strings)


def _validate_buckets(
    comm: Communicator,
    buckets: Sequence[Tuple[Strings, Lcps]],
    payloads: Optional[Sequence[Any]],
) -> None:
    if len(buckets) != comm.size:
        raise ValueError(
            f"need one bucket per PE ({comm.size}), got {len(buckets)}"
        )
    if payloads is not None and len(payloads) != comm.size:
        raise ValueError("payloads must have one entry per PE")


def _encode_blocks(
    buckets: Sequence[Tuple[Strings, Lcps]],
    lcp_compression: bool,
    ship_lcps: bool,
) -> List[WireSized]:
    """Encode per-destination buckets into wire blocks (shared by both paths)."""
    if lcp_compression:
        return [
            LcpCompressedBlock.encode(strings, lcps) for strings, lcps in buckets
        ]
    return [
        StringBlock(strings, lcps if ship_lcps and lcps is not None else None)
        for strings, lcps in buckets
    ]


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
    :mod:`repro.net.router`), or ``None`` to inherit the process-wide
    setting (``REPRO_EXCHANGE_TOPOLOGY`` /
    :func:`use_exchange_topology`, scoped per session by
    :class:`repro.session.Cluster`).  Routing changes startup counts and the
    measured total volume (forwarded bytes are attributed separately) but
    never the decoded runs or the origin wire bytes.
    """
    _validate_buckets(comm, buckets, payloads)
    topo = resolve_topology(topology)

    with comm.phase("exchange"):
        blocks = _encode_blocks(buckets, lcp_compression, ship_lcps)
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
            decoded_chars += _run_chars(strings)
            out.append(
                (strings, lcps) if payloads is None else (strings, lcps, payload)
            )
        comm.record_local_work(decoded_chars, sum(len(r[0]) for r in out))
    return out


def exchange_buckets_async(
    comm: Communicator,
    buckets: Sequence[Tuple[Strings, Lcps]],
    lcp_compression: bool = False,
    payloads: Optional[Sequence[Any]] = None,
    ship_lcps: bool = True,
    topology: Union[str, ExchangeTopology, None] = None,
) -> Iterator[Tuple]:
    """Split-phase twin of :func:`exchange_buckets`: yield runs as they land.

    Posts one non-blocking send per destination (the packed bucket views of
    PR 2 make these zero-copy) and one non-blocking receive per source *up
    front*, then yields ``(src, strings, lcps)`` — or ``(src, strings, lcps,
    payload)`` with ``payloads`` — in **arrival order** as deliveries
    complete.  Each run is decoded (front-decoding, LCP reconstruction) the
    moment it lands, and whatever the caller does between ``yield``s — e.g.
    preparing the LCP loser-tree merge — happens while the remaining
    deliveries are still in flight.  There is no serialisation barrier in
    the middle of the exchange; the epilogue synchronises only to agree on
    the collective's bottleneck volume for the cost model.

    Accounting contract (pinned by ``tests/test_async_exchange.py``): wire
    bytes, phase attribution and decoded local work are **identical** to the
    blocking path — encoding, wire sizing and decoding are the very same
    code.  Additionally the meter records the *overlap*: the wall-clock time
    this rank spent decoding/merging while at least one receive was
    outstanding, surfaced as ``TrafficReport.overlap_fraction("exchange")``
    and credited against the bandwidth term by
    :meth:`repro.net.cost_model.MachineModel.overlap_credit`.

    The generator must be exhausted (all ranks reach the epilogue at the
    same SPMD program point); abandoning it mid-exchange deadlocks the run
    like any skipped collective would.

    ``topology`` works exactly as in :func:`exchange_buckets`; under a
    multi-level topology the deliveries are driven by
    :func:`repro.net.router.routed_exchange_iter`, which yields runs as
    their frames reach this rank (arrivals are spread over the routing
    rounds), with the same decoded contents and wire accounting as the
    blocking routed path.
    """
    _validate_buckets(comm, buckets, payloads)
    topo = resolve_topology(topology)
    if not topo.is_direct:
        yield from _routed_exchange_async(
            comm, topo, buckets, lcp_compression, payloads, ship_lcps
        )
        return

    with comm.phase("exchange"):
        window_start = time.perf_counter()
        blocks = _encode_blocks(buckets, lcp_compression, ship_lcps)
        if payloads is None:
            messages: List[Any] = list(blocks)
        else:
            messages = [(blk, pay) for blk, pay in zip(blocks, payloads)]
        sizes = [wire_size(m) for m in messages]

        send_requests = [
            comm.isend(m, dst, tag=_TAG_ASYNC_EXCHANGE, nbytes=sizes[dst])
            for dst, m in enumerate(messages)
        ]
        recv_requests = [
            comm.irecv(src, tag=_TAG_ASYNC_EXCHANGE) for src in range(comm.size)
        ]

        pending = list(range(comm.size))
        decoded_chars = 0
        decoded_items = 0
        overlapped = 0.0

        def in_flight() -> bool:
            # a delivery is in flight only while its message has not arrived;
            # an arrived-but-unconsumed request must not inflate the overlap
            return any(not recv_requests[s].test() for s in pending)

        while pending:
            src = pending.pop(waitany([recv_requests[s] for s in pending]))
            message = recv_requests[src].wait()  # completed; returns payload
            if payloads is None:
                block, payload = message, None
            else:
                block, payload = message
            # a compute segment counts as overlapped only when a delivery was
            # in flight both when it started *and* when it ended — a message
            # landing mid-segment thus voids the whole segment, biasing the
            # measurement (and hence the cost-model credit) low, never high
            overlapping = bool(pending) and in_flight()
            decode_start = time.perf_counter()
            strings, lcps = block.decode_run()
            decoded_chars += _run_chars(strings)
            decoded_items += len(strings)
            yield_at = time.perf_counter()
            if overlapping and in_flight():
                overlapped += yield_at - decode_start
            overlapping = bool(pending) and in_flight()
            yield (
                (src, strings, lcps)
                if payloads is None
                else (src, strings, lcps, payload)
            )
            # time the caller spent on the run we just handed over, with
            # later deliveries still in flight
            if overlapping and in_flight():
                overlapped += time.perf_counter() - yield_at

        comm.waitall(send_requests)
        comm.record_local_work(decoded_chars, decoded_items)

        window = time.perf_counter() - window_start
        fraction = overlapped / window if window > 0.0 else 0.0
        comm.record_overlap(overlapped, window)
        my_total = sum(sz for dst, sz in enumerate(sizes) if dst != comm.rank)
        comm.record_exchange_collective(my_total, overlap_fraction=fraction)


def _routed_exchange_async(
    comm: Communicator,
    topo: ExchangeTopology,
    buckets: Sequence[Tuple[Strings, Lcps]],
    lcp_compression: bool,
    payloads: Optional[Sequence[Any]],
    ship_lcps: bool,
) -> Iterator[Tuple]:
    """Split-phase twin of the routed exchange (multi-level topologies).

    Encodes like the direct paths, hands delivery to
    :func:`repro.net.router.routed_exchange_iter` and decodes each run the
    moment its frames reach this rank — the decode (and whatever the caller
    does before pulling the next run) happens between the router's yields,
    which is exactly the window the router meters as overlap.
    """
    with comm.phase("exchange"):
        blocks = _encode_blocks(buckets, lcp_compression, ship_lcps)
        if payloads is None:
            messages: List[Any] = list(blocks)
        else:
            messages = [(blk, pay) for blk, pay in zip(blocks, payloads)]
        sizes = [wire_size(m) for m in messages]

        decoded_chars = 0
        decoded_items = 0
        for src, message in routed_exchange_iter(comm, topo, messages, sizes):
            if payloads is None:
                block, payload = message, None
            else:
                block, payload = message
            strings, lcps = block.decode_run()
            decoded_chars += _run_chars(strings)
            decoded_items += len(strings)
            yield (
                (src, strings, lcps)
                if payloads is None
                else (src, strings, lcps, payload)
            )
        comm.record_local_work(decoded_chars, decoded_items)
