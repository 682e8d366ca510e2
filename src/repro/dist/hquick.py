"""Hypercube quicksort for strings — the atomic baseline (Section IV).

``hQuick`` treats strings as atoms: ``2^d`` PEs (``d = floor(log2 p)``) are
arranged as a hypercube, and in ``d`` rounds the machine recursively splits
along one dimension at a time.  Each round picks a pivot (the weighted
median of the subcube members' local medians), partitions the local data,
and exchanges the wrong-side partition with the partner across the current
dimension.  After the last round every PE's data is confined to its leaf
interval and one local sort finishes the job.

Strings may travel up to ``d`` times, which is exactly why the paper uses
hQuick as the communication-volume baseline the string sorters beat
(Theorem 1 vs. Theorems 4/5).  PEs beyond the largest power of two fold
their input into the cube first and end up empty.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Tuple

import numpy as np

from ..mpi.comm import Communicator
from ..net.topology import hypercube_dimension, in_upper_half, partner
from ..strings.packed import PackedStringArray
from .local_sort import local_sort

__all__ = ["hquick_sort", "_local_median", "_weighted_median", "_subcube_allgather"]

# tag bases keep the engine's SPMD-ordering check meaningful across the
# different message kinds of one round
_TAG_FOLD = 101
_TAG_GOSSIP = 200
_TAG_EXCHANGE = 300

# local medians are taken over a bounded random sample so pivot selection
# stays O(sample log sample) per round even for huge local arrays
_MEDIAN_SAMPLE = 64


def _local_median(strings: Sequence[bytes]) -> Optional[bytes]:
    """Median (upper middle) of a string multiset, ``None`` when empty."""
    if not strings:
        return None
    ordered = sorted(strings)
    return ordered[len(ordered) // 2]


def _weighted_median(entries: Sequence[Tuple[Optional[bytes], int]]) -> bytes:
    """Weighted median of ``(value, weight)`` pairs; empty contributions
    (``None`` values or zero weights) are ignored; all-empty yields ``b""``."""
    items = [(v, w) for v, w in entries if v is not None and w > 0]
    if not items:
        return b""
    items.sort()
    total = sum(w for _, w in items)
    acc = 0
    for value, weight in items:
        acc += weight
        if 2 * acc >= total:
            return value
    return items[-1][0]  # pragma: no cover - loop always returns


def _subcube_allgather(comm: Communicator, dims: int, items: list) -> list:
    """Gossip ``items`` among the ``2^dims`` members of the caller's subcube.

    Standard hypercube all-gather: in round ``k`` each PE exchanges its
    accumulated list with the partner across dimension ``k``.  Only
    point-to-point traffic is used, so PEs outside the participating cube
    need not take part.
    """
    accumulated = list(items)
    for dim in range(dims):
        peer = partner(comm.rank, dim)
        received = comm.sendrecv(
            list(accumulated), peer, tag=_TAG_GOSSIP + dim
        )
        accumulated.extend(received)
    return accumulated


def hquick_sort(
    comm: Communicator,
    strings: Sequence[bytes],
    seed: int = 0,
    local_sorter: str = "msd_radix",
) -> Tuple[PackedStringArray, np.ndarray]:
    """Sort the distributed string array with hypercube quicksort.

    Returns this rank's packed sorted run and its ``int64`` LCP array: the
    pivot rounds partition ``bytes`` lists, and the final local sort packs
    what is left once.  ``seed`` only influences the random median sample
    (pivot quality), never the result.
    """
    p, rank = comm.size, comm.rank
    d = hypercube_dimension(p)
    cube = 1 << d
    local = list(strings)

    if p > 1:
        with comm.phase("hquick-fold"):
            if rank >= cube:
                comm.send(local, rank - cube, tag=_TAG_FOLD)
                local = []
            elif rank + cube < p:
                local.extend(comm.recv(rank + cube, tag=_TAG_FOLD))

    if rank < cube and d > 0:
        rng = random.Random(seed * 0x9E3779B1 + rank)
        with comm.phase("hquick-partition"):
            for dim in range(d - 1, -1, -1):
                # pivot: weighted median of the (dim+1)-subcube's local medians
                if len(local) > _MEDIAN_SAMPLE:
                    sample = rng.sample(local, _MEDIAN_SAMPLE)
                else:
                    sample = local
                contributions = _subcube_allgather(
                    comm, dim + 1, [(_local_median(sample), len(local))]
                )
                pivot = _weighted_median(contributions)

                lower = [s for s in local if s <= pivot]
                upper = [s for s in local if s > pivot]
                comm.record_local_work(
                    sum(min(len(s), len(pivot) + 1) for s in local), len(local)
                )
                if in_upper_half(rank, dim):
                    keep, give = upper, lower
                else:
                    keep, give = lower, upper
                received = comm.sendrecv(
                    give, partner(rank, dim), tag=_TAG_EXCHANGE + dim
                )
                local = keep + received

    return local_sort(comm, local, local_sorter, phase="hquick-local-sort")
