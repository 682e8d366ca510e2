"""Topology-aware routed delivery for the personalised all-to-all (Section II).

Section II of the paper weighs two ways of delivering a personalised
all-to-all: **direct** delivery (every PE sends one message to every other
PE: ``O(alpha p + beta h)``, volume optimal) and **multi-level** delivery
(messages travel through intermediate PEs that combine payloads:
``O(alpha log p + beta h log p)`` for a hypercube, latency optimal at the
price of inflated volume).  Before this module the tradeoff existed only as
the two closed-form cost formulas of
:class:`repro.net.cost_model.MachineModel`; here the multi-level delivery is
an *actual routed exchange*, so the claimed ``log p`` volume inflation is
measured instead of assumed.

Three strategies implement one :class:`ExchangeTopology` interface:

=========== ================================================================
direct       one message per (src, dst) pair, 1 hop: the plain ``alltoall``
hypercube    ``d = log2 p`` rounds; round ``k`` exchanges combined payloads
             with the neighbour across dimension ``k`` (store and forward);
             non-power-of-two ``p`` falls back to direct delivery
grid         two rounds over an ``r x c`` factorisation: a row phase moves
             every frame into its destination's column, a column phase
             delivers it; prime ``p`` degenerates to ``1 x p`` = direct
=========== ================================================================

Delivery is **store-and-forward with explicit framing**: each bucket
travels as a :class:`RouteFrame` carrying its origin, destination and exact
payload wire size; per round, a PE bundles the frames sharing a next hop
into one batch message.  Frame headers and forwarded payload bytes are
attributed separately from origin bytes
(:meth:`repro.net.metrics.TrafficReport.forwarded_bytes`), so the *origin*
volume — the paper's communication-volume metric — is bit-identical across
topologies while the measured total exposes the routing inflation.

The route taken by every frame is fully determined by
:meth:`ExchangeTopology.next_hop`; the tests' path oracle
(``tests/oracles/routing.py``) *simulates* exactly those hops, so the path
algebra they verify is by construction the algebra the routed exchange
executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..faults.errors import CorruptFrameError
from ..mpi.serialization import CHECKSUM_WIRE_BYTES, payload_checksum, varint_size
from .topology import grid_dims, hypercube_dimension, is_power_of_two, partner

__all__ = [
    "RouteFrame",
    "frame_wire_bytes",
    "batch_wire_bytes",
    "ExchangeTopology",
    "DirectTopology",
    "HypercubeTopology",
    "GridTopology",
    "TOPOLOGIES",
    "TOPOLOGY_NAMES",
    "resolve_topology",
    "routed_exchange",
]

# tag base of the routed exchange rounds (one tag per round), outside the
# ranges hquick (100/200/300 + dimension) claims, so the engine's
# tag-ordering diagnostics stay sharp
_TAG_ROUTED = 470


@dataclass
class RouteFrame:
    """One bucket in transit: origin PE, final destination, payload, wire size.

    The payload moves by reference inside the simulated machine (exactly as
    the direct exchange moves blocks); ``nbytes`` is its exact wire size so
    every hop charges what a real store-and-forward implementation would.

    When the run seals its wire formats (``comm.config.wire_checksums``)
    the origin PE *seals* the frame — a
    per-origin sequence number plus a CRC32 of the payload — and the
    destination PE verifies the seal on delivery (forwarders pass sealed
    frames through untouched, exactly like a real store-and-forward router
    would): end-to-end integrity over multi-hop paths, charged as
    ``varint(seq) + 4`` extra wire bytes per sealed frame.
    """

    origin: int
    dest: int
    payload: Any
    nbytes: int
    #: per-origin frame sequence number (only meaningful when sealed)
    seq: int = 0
    #: CRC32 of the payload, or ``None`` for an unsealed frame
    crc: Optional[int] = None

    def content_crc(self) -> int:
        """The checksum the envelope layer folds in (the seal, or fresh)."""
        return self.crc if self.crc is not None else payload_checksum(self.payload)

    def verify(self) -> None:
        """Check the seal at the destination; no-op for unsealed frames.

        Raises
        ------
        CorruptFrameError
            When the payload's CRC32 no longer matches the origin's seal.
        """
        if self.crc is not None and payload_checksum(self.payload) != self.crc:
            raise CorruptFrameError(
                f"route frame {self.origin}->{self.dest} seq {self.seq}: "
                "payload CRC32 does not match the origin's seal "
                "(frame corrupted in transit)"
            )


def frame_wire_bytes(frame: RouteFrame) -> int:
    """Wire size of one frame: varint origin + dest + payload size + payload.

    A sealed frame additionally carries ``varint(seq)`` + its 4-byte CRC32.
    """
    total = (
        varint_size(frame.origin)
        + varint_size(frame.dest)
        + varint_size(frame.nbytes)
        + frame.nbytes
    )
    if frame.crc is not None:
        total += varint_size(frame.seq) + CHECKSUM_WIRE_BYTES
    return total


def batch_wire_bytes(frames: Sequence[RouteFrame]) -> int:
    """Wire size of one per-hop batch: varint frame count + framed payloads."""
    return varint_size(len(frames)) + sum(frame_wire_bytes(f) for f in frames)


class ExchangeTopology:
    """How a personalised all-to-all is delivered: rounds, peers, next hops.

    Implementations are pure functions of rank numbers (no communicator
    needed), which is what makes the path algebra property-testable.  The
    contract, for a machine of ``p`` PEs:

    * :meth:`num_rounds` rounds are executed in order; in round ``k`` a PE
      exchanges exactly one batch with every peer in
      :meth:`round_peers` (the peer relation must be symmetric or every
      rank deadlocks);
    * a frame currently held by ``rank`` and destined for ``dest`` moves to
      :meth:`next_hop` in round ``k`` (``None`` = hold this round); the
      result must be one of the round's peers;
    * after the last round every frame has reached its destination.
    """

    #: registry name of this delivery strategy
    name: str = ""

    @property
    def is_direct(self) -> bool:
        """Whether this strategy is plain direct delivery (no forwarding)."""
        return self.name == "direct"

    def num_rounds(self, p: int) -> int:
        """Number of store-and-forward rounds on a ``p``-PE machine."""
        raise NotImplementedError

    def round_label(self, p: int, k: int) -> str:
        """Accounting label of round ``k`` (keys ``TrafficReport.route_bytes``)."""
        raise NotImplementedError

    def round_peers(self, rank: int, p: int, k: int) -> List[int]:
        """The PEs ``rank`` exchanges one batch with in round ``k``."""
        raise NotImplementedError

    def next_hop(self, rank: int, dest: int, p: int, k: int) -> Optional[int]:
        """Where a frame at ``rank`` destined for ``dest`` moves in round ``k``.

        ``None`` means the frame is held this round (or has already
        arrived, when ``rank == dest``).
        """
        raise NotImplementedError

    def collective_kind(self, p: int) -> str:
        """The cost-model event kind a routed exchange on ``p`` PEs records."""
        raise NotImplementedError


class DirectTopology(ExchangeTopology):
    """Direct delivery: every frame travels its single (src, dst) edge.

    The exchange runs it as the plain :meth:`Communicator.alltoall`
    (:attr:`is_direct`), so it never routes and implements no round.
    """

    name = "direct"


class HypercubeTopology(ExchangeTopology):
    """``log2 p`` pairwise rounds across the hypercube dimensions.

    Round ``k`` exchanges one combined batch with the neighbour across
    dimension ``k``: a frame moves iff its destination differs from its
    current holder in bit ``k``, so after round ``k`` the low ``k+1`` bits
    of holder and destination agree and every frame arrives after exactly
    ``popcount(src ^ dst)`` hops.  Non-power-of-two ``p`` has no hypercube;
    routing falls back to direct delivery in one round (and records a plain
    ``alltoall`` cost event) — the documented, property-tested fallback.
    """

    name = "hypercube"

    def num_rounds(self, p: int) -> int:
        """``log2 p`` dimension rounds, or one direct round off a power of two."""
        if p <= 1:
            return 0
        return hypercube_dimension(p) if is_power_of_two(p) else 1

    def round_label(self, p: int, k: int) -> str:
        """``hypercube-dim<k>`` per dimension; the fallback labels itself."""
        if not is_power_of_two(p):
            return "hypercube-fallback"
        return f"hypercube-dim{k}"

    def round_peers(self, rank: int, p: int, k: int) -> List[int]:
        """The single dimension-``k`` partner (all others in the fallback)."""
        if not is_power_of_two(p):
            return [r for r in range(p) if r != rank]
        return [partner(rank, k)]

    def next_hop(self, rank: int, dest: int, p: int, k: int) -> Optional[int]:
        """Cross dimension ``k`` iff destination differs in bit ``k``."""
        if dest == rank:
            return None
        if not is_power_of_two(p):
            return dest
        return partner(rank, k) if ((rank ^ dest) >> k) & 1 else None

    def collective_kind(self, p: int) -> str:
        """``alltoall-hypercube`` (``alltoall`` when the fallback routes)."""
        return "alltoall-hypercube" if is_power_of_two(p) and p > 1 else "alltoall"


class GridTopology(ExchangeTopology):
    """Two-level delivery over the ``r x c`` grid of :func:`grid_dims`.

    Rank ``i`` sits at row ``i // c``, column ``i % c``.  The **row phase**
    moves every frame to the PE in the holder's row that shares the
    destination's column; the **column phase** delivers it within that
    column.  Every path has at most 2 hops; frames already in the right
    column skip the row phase.  Prime ``p`` factors as ``1 x p``, making
    the row phase direct delivery and the column phase empty.
    """

    name = "grid"

    def num_rounds(self, p: int) -> int:
        """A row round and a column round (none on a single PE)."""
        return 2 if p > 1 else 0

    def round_label(self, p: int, k: int) -> str:
        """``grid-rows`` then ``grid-cols``."""
        return "grid-rows" if k == 0 else "grid-cols"

    def round_peers(self, rank: int, p: int, k: int) -> List[int]:
        """Row mates in round 0, column mates in round 1."""
        rows, cols = grid_dims(p)
        row, col = divmod(rank, cols)
        if k == 0:
            return [row * cols + j for j in range(cols) if j != col]
        return [i * cols + col for i in range(rows) if i != row]

    def next_hop(self, rank: int, dest: int, p: int, k: int) -> Optional[int]:
        """Row phase aligns the column; column phase reaches the destination."""
        if dest == rank:
            return None
        _, cols = grid_dims(p)
        row, col = divmod(rank, cols)
        dest_col = dest % cols
        if k == 0:
            return row * cols + dest_col if col != dest_col else None
        return dest if col == dest_col else None

    def collective_kind(self, p: int) -> str:
        """``alltoall-grid``: ``O(alpha (r + c) + beta h)`` per phase."""
        return "alltoall-grid" if p > 1 else "alltoall"


#: name -> strategy singleton (strategies are stateless)
TOPOLOGIES: Dict[str, ExchangeTopology] = {
    t.name: t for t in (DirectTopology(), HypercubeTopology(), GridTopology())
}

#: the valid ``exchange_topology`` vocabulary (specs, CLI, run config)
TOPOLOGY_NAMES: Tuple[str, ...] = tuple(sorted(TOPOLOGIES))


def resolve_topology(
    topology: Union[str, ExchangeTopology, None], comm
) -> ExchangeTopology:
    """Resolve a topology argument to a strategy object.

    ``None`` means the run's setting (``comm.config.exchange_topology``),
    a string is looked up in :data:`TOPOLOGIES`, and a ready
    :class:`ExchangeTopology` instance passes through — the same three
    spellings :func:`repro.dist.exchange.exchange_buckets` accepts.  The
    strategy changes how buckets travel, never the decoded runs or the
    origin wire bytes.
    """
    if topology is None:
        topology = comm.config.exchange_topology
    if isinstance(topology, ExchangeTopology):
        return topology
    try:
        return TOPOLOGIES[topology]
    except KeyError:
        raise ValueError(
            f"unknown exchange topology {topology!r}; "
            f"available: {list(TOPOLOGY_NAMES)}"
        ) from None


# ---------------------------------------------------------------------------
# the routed exchange engine
# ---------------------------------------------------------------------------


def _split_outgoing(
    topology: ExchangeTopology,
    transit: List[RouteFrame],
    rank: int,
    p: int,
    k: int,
    peers: Sequence[int],
) -> Tuple[Dict[int, List[RouteFrame]], List[RouteFrame]]:
    """Group in-transit frames by round-``k`` next hop; return (outgoing, held)."""
    outgoing: Dict[int, List[RouteFrame]] = {peer: [] for peer in peers}
    held: List[RouteFrame] = []
    for frame in transit:
        nxt = topology.next_hop(rank, frame.dest, p, k)
        if nxt is None:
            held.append(frame)
        else:
            outgoing[nxt].append(frame)
    return outgoing, held


def _send_round(comm, topology, outgoing, p: int, k: int) -> None:
    """Send one (possibly empty) batch per peer; attribute forwarded bytes."""
    label = topology.round_label(p, k)
    # sends are eager and the peers never include the sender, so every
    # batch is on its way before the round's receives start
    for peer, batch in outgoing.items():
        wire = batch_wire_bytes(batch)
        own = sum(f.nbytes for f in batch if f.origin == comm.rank)
        comm.send(batch, peer, tag=_TAG_ROUTED + k, nbytes=wire)
        # headers and relayed payloads are routing overhead, not origin
        # volume: attributing them separately is what keeps the paper's
        # bytes-per-string metric comparable across delivery strategies
        comm.record_route(label, wire, wire - own)


def _prepare_frames(
    comm, messages: Sequence[Any], sizes: Sequence[int], seal: bool
) -> Tuple[List[Tuple[int, Any]], List[RouteFrame], int]:
    """Split per-destination messages into (already home, in transit, origin bytes).

    With ``seal`` every frame in transit carries a sequence number and the
    CRC32 of its payload.
    """
    ready: List[Tuple[int, Any]] = []
    transit: List[RouteFrame] = []
    origin_total = 0
    seq = 0
    for dst, message in enumerate(messages):
        if dst == comm.rank:
            ready.append((comm.rank, message))
        else:
            frame = RouteFrame(comm.rank, dst, message, sizes[dst])
            origin_total += sizes[dst]
            if seal:
                frame.seq = seq
                frame.crc = payload_checksum(message)
                seq += 1
                # the seal rides from origin to destination: origin volume
                origin_total += varint_size(frame.seq) + CHECKSUM_WIRE_BYTES
            transit.append(frame)
    return ready, transit, origin_total


def routed_exchange(
    comm,
    topology: ExchangeTopology,
    messages: Sequence[Any],
    sizes: Sequence[int],
) -> List[Any]:
    """Deliver ``messages[dst]`` to every ``dst`` over ``topology`` (blocking).

    All rounds run to completion, then the payloads are returned indexed by
    origin PE — the same shape ``Communicator.alltoall`` returns, so the caller's decode
    loop is byte-for-byte the one the direct exchange uses.  Records one
    cost-model collective event (:meth:`ExchangeTopology.collective_kind`)
    carrying the **origin** bottleneck volume, exactly as the direct
    all-to-all does — the measured routed volume lives in the traffic
    meter's forwarded/route counters instead.
    """
    p, rank = comm.size, comm.rank
    received: List[Any] = [None] * p
    ready, transit, origin_total = _prepare_frames(
        comm, messages, sizes, comm.config.wire_checksums
    )
    for src, payload in ready:
        received[src] = payload
    for k in range(topology.num_rounds(p)):
        peers = topology.round_peers(rank, p, k)
        outgoing, transit = _split_outgoing(topology, transit, rank, p, k, peers)
        _send_round(comm, topology, outgoing, p, k)
        for peer in peers:
            for frame in comm.recv(peer, tag=_TAG_ROUTED + k):
                if frame.dest == rank:
                    frame.verify()  # end-to-end seal check at the destination
                    received[frame.origin] = frame.payload
                else:
                    transit.append(frame)
    if transit:  # pragma: no cover - topology contract violation
        raise RuntimeError(
            f"{topology.name}: {len(transit)} frame(s) undelivered at rank {rank}"
        )
    comm.record_exchange_collective(
        origin_total, kind=topology.collective_kind(p)
    )
    return received

