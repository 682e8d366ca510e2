"""The path algebra of the routed exchange, simulated hop by hop.

:func:`path` replays :meth:`ExchangeTopology.next_hop` round by round, so
the paths the tests check are exactly the hops the routed exchange
executes; :func:`max_hops` is the bound each topology promises.
"""

from __future__ import annotations

from typing import List

from repro.net.router import ExchangeTopology
from repro.net.topology import grid_dims, hypercube_dimension, is_power_of_two

__all__ = ["max_hops", "path"]


def path(topology: ExchangeTopology, src: int, dst: int, p: int) -> List[int]:
    """The rank sequence a frame travels, ``[src, ..., dst]`` inclusive."""
    if not (0 <= src < p and 0 <= dst < p):
        raise ValueError(f"ranks must be in [0, {p}), got {src} -> {dst}")
    pos, hops = src, [src]
    for k in range(topology.num_rounds(p)):
        if pos == dst:
            break
        nxt = topology.next_hop(pos, dst, p, k)
        if nxt is not None:
            assert nxt in topology.round_peers(pos, p, k), (
                f"{topology.name}: next hop {nxt} of {pos}->{dst} is not "
                f"a round-{k} peer of {pos}"
            )
            hops.append(nxt)
            pos = nxt
    assert pos == dst, (
        f"{topology.name}: {src}->{dst} undelivered after "
        f"{topology.num_rounds(p)} rounds on {p} PEs"
    )
    return hops


def max_hops(name: str, p: int) -> int:
    """Upper bound on the path length (edges) between any two of ``p`` PEs.

    Direct delivery takes one hop; a power-of-two hypercube ``log2 p`` (the
    Hamming distance bound), its fallback one; the grid one per non-trivial
    dimension.
    """
    if name == "hypercube":
        return hypercube_dimension(p) if is_power_of_two(p) and p > 1 else 1
    if name == "grid":
        rows, cols = grid_dims(p)
        return (1 if rows > 1 else 0) + (1 if cols > 1 else 0) if p > 1 else 0
    return 1
