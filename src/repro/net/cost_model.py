"""The alpha-beta communication cost model of Section II.

"Sending a message of m bits from one PE to another PE takes time
``alpha + beta * m``".  Collective operations have the well-known costs (also
quoted in Section II):

* broadcast / reduction / all-gather ("gossiping"): ``O(alpha log p + beta h)``
  where ``h`` is the maximum amount of data sent or received at any PE,
* personalised all-to-all: either ``O(alpha p + beta h)`` (direct delivery,
  volume optimal) or ``O(alpha log p + beta h log p)`` (hypercube/indirect
  delivery, latency optimal).

The model is used in two places:

1. the benchmark harness converts the *exact* per-PE byte counts recorded by
   the simulated communicator into a modelled communication time, so the
   "running time" panels of the paper's figures can be reproduced in shape
   even though a Python simulation cannot reproduce absolute cluster timings;
2. the theory-bound benchmarks compare measured communication volumes against
   the bounds of Theorems 1, 4 and 5.

Default constants are in the ballpark of the paper's hardware (ForHLR I,
InfiniBand 4X FDR: a few microseconds latency, ~6-7 GB/s per-node
bandwidth).  They can be overridden for sensitivity studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .topology import grid_dims

__all__ = ["MachineModel", "DEFAULT_MACHINE"]


@dataclass(frozen=True)
class MachineModel:
    """Alpha-beta machine description.

    Parameters
    ----------
    alpha:
        Message startup latency in seconds.
    beta:
        Time per *byte* of communicated data in seconds (the paper states
        the model per bit to make statements about characters precise; we
        keep bytes because all our wire-size accounting is in bytes).
    char_time:
        Modelled time per character of local string-sorting work in seconds.
        Used to convert character-inspection counts into a local-work time
        so the modelled total time has both components, as in the paper's
        analysis.  The default corresponds to a few ns per character, the
        right order of magnitude for tuned C++ string sorters on the paper's
        2.5 GHz Xeons.
    item_time:
        Modelled time per per-string bookkeeping operation (loser-tree
        updates, pointer moves).
    """

    alpha: float = 5.0e-6
    beta: float = 1.6e-10  # ~6.25 GB/s
    char_time: float = 2.0e-9
    item_time: float = 2.0e-8

    def with_data_scale(self, scale: float) -> "MachineModel":
        """Model for a run whose input was shrunk by ``scale`` relative to the paper.

        Every simulated string stands for ``scale`` real strings: bandwidth
        and local-work terms are multiplied by ``scale`` while the per-message
        latency ``alpha`` stays fixed, preserving the latency/bandwidth
        balance of the full-size experiment.  The figure-reproduction
        benchmarks use this to recover the paper's bandwidth-dominated regime
        from the necessarily smaller simulated inputs (see EXPERIMENTS.md).
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        return MachineModel(
            alpha=self.alpha,
            beta=self.beta * scale,
            char_time=self.char_time * scale,
            item_time=self.item_time * scale,
        )

    # ------------------------------------------------------------------ point to point
    def p2p(self, nbytes: int) -> float:
        """Cost of one point-to-point message of ``nbytes`` bytes."""
        return self.alpha + self.beta * nbytes

    # ------------------------------------------------------------------ collectives
    def broadcast(self, nbytes: int, p: int) -> float:
        """Broadcast of ``nbytes`` from one PE to all ``p`` PEs."""
        if p <= 1:
            return 0.0
        return self.alpha * math.log2(p) + self.beta * nbytes

    def reduction(self, nbytes: int, p: int) -> float:
        """Reduction (or all-reduce) of ``nbytes`` contributions."""
        if p <= 1:
            return 0.0
        return self.alpha * math.log2(p) + self.beta * nbytes

    def allgather(self, nbytes_per_pe: int, p: int) -> float:
        """All-gather (gossiping); ``h`` is what every PE ends up receiving."""
        if p <= 1:
            return 0.0
        h = nbytes_per_pe * p
        return self.alpha * math.log2(p) + self.beta * h

    def gather(self, nbytes_per_pe: int, p: int) -> float:
        """Gather to a single root; the root receives ``p * nbytes_per_pe``."""
        if p <= 1:
            return 0.0
        return self.alpha * math.log2(p) + self.beta * nbytes_per_pe * p

    def alltoall_direct(self, max_bytes_per_pe: int, p: int) -> float:
        """Personalised all-to-all with direct delivery: ``O(alpha p + beta h)``.

        ``max_bytes_per_pe`` is the bottleneck ``h``: the maximum over PEs of
        the total bytes sent (or received) by that PE in this exchange.
        """
        if p <= 1:
            return 0.0
        return self.alpha * p + self.beta * max_bytes_per_pe

    def alltoall_hypercube(self, max_bytes_per_pe: int, p: int) -> float:
        """Personalised all-to-all routed through a hypercube.

        Latency drops to ``O(alpha log p)`` while the volume is inflated by a
        ``log p`` factor (every item travels through up to ``log p`` hops).
        """
        if p <= 1:
            return 0.0
        lg = math.log2(p)
        return self.alpha * lg + self.beta * max_bytes_per_pe * lg

    def alltoall_grid(self, max_bytes_per_pe: int, p: int) -> float:
        """Personalised all-to-all routed over the two-level ``r x c`` grid.

        Each existing phase (rows with ``c > 1``, columns with ``r > 1``) is
        a direct all-to-all within its group, so latency drops from
        ``alpha p`` to ``alpha ((r - 1) + (c - 1))`` — minimised near
        ``2 sqrt(p)`` — while every item travels once per phase, inflating
        the bandwidth term accordingly.  The measured inflation of the
        routed implementation (:mod:`repro.net.router`) is validated
        against this formula by ``benchmarks/test_multilevel_exchange.py``.
        """
        if p <= 1:
            return 0.0
        rows, cols = grid_dims(p)
        phases = (1 if rows > 1 else 0) + (1 if cols > 1 else 0)
        volume = max_bytes_per_pe * phases
        return self.alpha * ((rows - 1) + (cols - 1)) + self.beta * volume

    # ------------------------------------------------------------------ local work
    def local_work(self, chars: int, items: int = 0) -> float:
        """Modelled local-computation time for ``chars`` character inspections."""
        return chars * self.char_time + items * self.item_time


DEFAULT_MACHINE = MachineModel()
