"""Step 1 of every rank program: sort the rank's strings into a packed run.

:func:`repro.dist.api.merge_sort` sorts its input block with it before
sampling, and :func:`repro.dist.hquick.hquick_sort` sorts what its partition
rounds left on the rank.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..mpi.comm import Communicator
from ..sequential.stats import CharStats
from ..sequential.vector_sort import vector_sort_with_lcp
from ..strings.packed import PackedStringArray

__all__ = ["local_sort"]


def local_sort(
    comm: Communicator, strings: Sequence[bytes], phase: str = "local-sort"
) -> Tuple[PackedStringArray, np.ndarray]:
    """Sort ``strings`` into a packed run and ``int64`` LCPs inside ``phase``.

    The block is packed once (zero-copy when it already is) and sorted by
    the vectorized sorter, the argsort or the word radix kernel.
    """
    block = PackedStringArray.from_strings(strings)
    with comm.phase(phase):
        stats = CharStats()
        out, lcps = vector_sort_with_lcp(block, stats)
        comm.record_local_work(stats.chars_inspected, len(out))
    return out, lcps
