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

Two settings name the delivery (:data:`TOPOLOGY_NAMES`):

=========== ================================================================
direct       one message per (src, dst) pair, 1 hop: the plain ``alltoall``
             (:func:`repro.dist.exchange.exchange_buckets` never routes it)
hypercube    ``d = log2 p`` rounds; round ``k`` exchanges combined payloads
             with the neighbour across dimension ``k`` (store and forward);
             non-power-of-two ``p`` falls back to direct delivery
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
:func:`next_hop`; the tests' path oracle
(``tests/oracles/routing.py``) *simulates* exactly those hops, so the path
algebra they verify is by construction the algebra the routed exchange
executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..mpi.serialization import varint_size
from .topology import hypercube_dimension, is_power_of_two, partner

__all__ = [
    "RouteFrame",
    "frame_wire_bytes",
    "batch_wire_bytes",
    "TOPOLOGY_NAMES",
    "num_rounds",
    "round_peers",
    "next_hop",
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
    """

    origin: int
    dest: int
    payload: Any
    nbytes: int


def frame_wire_bytes(frame: RouteFrame) -> int:
    """Wire size of one frame: varint origin + dest + payload size + payload."""
    return (
        varint_size(frame.origin)
        + varint_size(frame.dest)
        + varint_size(frame.nbytes)
        + frame.nbytes
    )


def batch_wire_bytes(frames: Sequence[RouteFrame]) -> int:
    """Wire size of one per-hop batch: varint frame count + framed payloads."""
    return varint_size(len(frames)) + sum(frame_wire_bytes(f) for f in frames)


#: the valid ``exchange_topology`` vocabulary (specs, CLI, run config):
#: direct delivery is the plain ``alltoall``, ``hypercube`` routes here
TOPOLOGY_NAMES: Tuple[str, ...] = ("direct", "hypercube")


def num_rounds(p: int) -> int:
    """``log2 p`` dimension rounds, or one direct round off a power of two.

    Non-power-of-two ``p`` has no hypercube: routing falls back to direct
    delivery in one round (labelled ``hypercube-fallback``, recorded as a
    plain ``alltoall`` cost event).
    """
    if p <= 1:
        return 0
    return hypercube_dimension(p) if is_power_of_two(p) else 1


def round_peers(rank: int, p: int, k: int) -> List[int]:
    """The PEs ``rank`` exchanges one batch with in round ``k``.

    The single dimension-``k`` partner, or every other PE in the fallback.
    The relation is symmetric: an asymmetric one would deadlock the round.
    """
    if not is_power_of_two(p):
        return [r for r in range(p) if r != rank]
    return [partner(rank, k)]


def next_hop(rank: int, dest: int, p: int, k: int) -> Optional[int]:
    """Where a frame at ``rank`` destined for ``dest`` moves in round ``k``.

    It crosses dimension ``k`` iff its destination differs from its holder
    in bit ``k``, so after round ``k`` the low ``k + 1`` bits agree and
    every frame arrives after ``popcount(src ^ dst)`` hops.  ``None`` means
    the frame is held this round (or has arrived, when ``rank == dest``);
    any other result is one of :func:`round_peers`.
    """
    if dest == rank:
        return None
    if not is_power_of_two(p):
        return dest
    return partner(rank, k) if ((rank ^ dest) >> k) & 1 else None


# ---------------------------------------------------------------------------
# the routed exchange engine
# ---------------------------------------------------------------------------


def _split_outgoing(
    transit: List[RouteFrame], rank: int, p: int, k: int, peers: Sequence[int]
) -> Tuple[Dict[int, List[RouteFrame]], List[RouteFrame]]:
    """Group in-transit frames by round-``k`` next hop; return (outgoing, held)."""
    outgoing: Dict[int, List[RouteFrame]] = {peer: [] for peer in peers}
    held: List[RouteFrame] = []
    for frame in transit:
        nxt = next_hop(rank, frame.dest, p, k)
        if nxt is None:
            held.append(frame)
        else:
            outgoing[nxt].append(frame)
    return outgoing, held


def _send_round(comm, outgoing, p: int, k: int) -> None:
    """Send one (possibly empty) batch per peer; attribute forwarded bytes.

    The bytes are keyed ``hypercube-dim<k>`` per dimension, or
    ``hypercube-fallback`` off a power of two.
    """
    label = f"hypercube-dim{k}" if is_power_of_two(p) else "hypercube-fallback"
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
    comm, messages: Sequence[Any], sizes: Sequence[int]
) -> Tuple[List[Tuple[int, Any]], List[RouteFrame], int]:
    """Split per-destination messages into (already home, in transit, origin bytes)."""
    ready: List[Tuple[int, Any]] = []
    transit: List[RouteFrame] = []
    origin_total = 0
    for dst, message in enumerate(messages):
        if dst == comm.rank:
            ready.append((comm.rank, message))
        else:
            transit.append(RouteFrame(comm.rank, dst, message, sizes[dst]))
            origin_total += sizes[dst]
    return ready, transit, origin_total


def routed_exchange(comm, messages: Sequence[Any], sizes: Sequence[int]) -> List[Any]:
    """Deliver ``messages[dst]`` to every ``dst`` over the hypercube (blocking).

    All rounds run to completion, then the payloads are returned indexed by
    origin PE — the same shape ``Communicator.alltoall`` returns, so the caller's decode
    loop is byte-for-byte the one the direct exchange uses.  Records one
    cost-model collective event (``alltoall-hypercube``, or ``alltoall`` in
    the fallback and on one PE) carrying the **origin** bottleneck volume,
    exactly as the direct all-to-all does — the measured routed volume
    lives in the traffic meter's forwarded/route counters instead.
    """
    p, rank = comm.size, comm.rank
    received: List[Any] = [None] * p
    ready, transit, origin_total = _prepare_frames(comm, messages, sizes)
    for src, payload in ready:
        received[src] = payload
    for k in range(num_rounds(p)):
        peers = round_peers(rank, p, k)
        outgoing, transit = _split_outgoing(transit, rank, p, k, peers)
        _send_round(comm, outgoing, p, k)
        for peer in peers:
            for frame in comm.recv(peer, tag=_TAG_ROUTED + k):
                if frame.dest == rank:
                    received[frame.origin] = frame.payload
                else:
                    transit.append(frame)
    if transit:  # pragma: no cover - routing contract violation
        raise RuntimeError(f"{len(transit)} frame(s) undelivered at rank {rank}")
    kind = "alltoall-hypercube" if is_power_of_two(p) and p > 1 else "alltoall"
    comm.record_exchange_collective(origin_total, kind=kind)
    return received

