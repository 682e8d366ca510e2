"""The path algebra of the routed exchange, simulated hop by hop.

:func:`path` replays :func:`repro.net.router.next_hop` round by round, so
the paths the tests check are exactly the hops the routed exchange
executes; :func:`max_hops` is the bound the hypercube promises.
"""

from __future__ import annotations

from typing import List

from repro.net import router
from repro.net.topology import hypercube_dimension, is_power_of_two

__all__ = ["max_hops", "path"]


def path(src: int, dst: int, p: int) -> List[int]:
    """The rank sequence a frame travels, ``[src, ..., dst]`` inclusive."""
    if not (0 <= src < p and 0 <= dst < p):
        raise ValueError(f"ranks must be in [0, {p}), got {src} -> {dst}")
    pos, hops = src, [src]
    for k in range(router.num_rounds(p)):
        if pos == dst:
            break
        nxt = router.next_hop(pos, dst, p, k)
        if nxt is not None:
            assert nxt in router.round_peers(pos, p, k), (
                f"next hop {nxt} of {pos}->{dst} is not a round-{k} peer of {pos}"
            )
            hops.append(nxt)
            pos = nxt
    assert pos == dst, (
        f"{src}->{dst} undelivered after {router.num_rounds(p)} rounds on {p} PEs"
    )
    return hops


def max_hops(p: int) -> int:
    """Upper bound on the path length (edges) between any two of ``p`` PEs.

    A power-of-two hypercube takes at most ``log2 p`` hops (the Hamming
    distance bound), its fallback one.
    """
    return hypercube_dimension(p) if is_power_of_two(p) and p > 1 else 1
