"""Reference duplicate detection: the oracle of the fingerprint exchange.

:func:`repro.dist.duplicates.unique_fingerprint_mask` sends each distinct
value once per PE and folds each PE's local multiplicity into the home
PE's reply.  :func:`allgather_unique_mask` is the unfiltered question it
answers: every PE gathers every value, copies included, and counts them
with a :class:`~collections.Counter`.  Its signature matches, so a test can
monkeypatch it into :mod:`repro.dist.prefix_doubling`.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

import numpy as np

from repro.mpi.comm import Communicator

__all__ = ["allgather_unique_mask"]


def allgather_unique_mask(
    comm: Communicator,
    fingerprints: Sequence[int],
    bits: int = 64,
    golomb: bool = False,
    phase: Optional[str] = None,
) -> np.ndarray:
    """Per-fingerprint verdicts from a global ``Counter`` of every copy."""
    values = [int(v) for v in fingerprints]
    with comm.phase(phase if phase is not None else "duplicate-detection"):
        counts = Counter(v for block in comm.allgather(values) for v in block)
    return np.array([counts[v] == 1 for v in values], dtype=bool)
