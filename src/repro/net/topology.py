"""Hypercube topology helpers (Sections II and IV).

``hQuick`` logically arranges ``2^d`` PEs (with ``d = floor(log2 p)``) as a
``d``-dimensional hypercube and works on shrinking subcubes; the routed
multi-level all-to-all of :mod:`repro.net.router` reuses the same rank
arithmetic.  The helpers here are pure functions on rank numbers so they can
be unit-tested without a running communicator.
"""

from __future__ import annotations

__all__ = [
    "hypercube_dimension",
    "partner",
    "in_upper_half",
    "is_power_of_two",
]


def hypercube_dimension(num_pes: int) -> int:
    """``d = floor(log2(num_pes))`` — the dimension hQuick actually uses."""
    if num_pes <= 0:
        raise ValueError("num_pes must be positive")
    d = 0
    while (1 << (d + 1)) <= num_pes:
        d += 1
    return d


def partner(rank: int, dim: int) -> int:
    """Rank of the neighbour across hypercube dimension ``dim``."""
    return rank ^ (1 << dim)


def in_upper_half(rank: int, dim: int) -> bool:
    """True if ``rank`` lies in the upper half of dimension ``dim``."""
    return bool(rank & (1 << dim))


def is_power_of_two(num_pes: int) -> bool:
    """Whether ``num_pes`` is an exact power of two (hypercube routing needs it)."""
    return num_pes > 0 and num_pes & (num_pes - 1) == 0
