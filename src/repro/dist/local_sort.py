"""Step 1 of every rank program: sort the rank's strings into a packed run.

:func:`repro.dist.api.merge_sort` sorts its input block with it before
sampling, and :func:`repro.dist.hquick.hquick_sort` sorts what its partition
rounds left on the rank.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..mpi.comm import Communicator
from ..sequential import sort_strings_with_lcp
from ..sequential.stats import CharStats
from ..strings.packed import PackedStringArray

__all__ = ["local_sort"]


def local_sort(
    comm: Communicator, strings: Sequence[bytes], sorter: str, phase: str = "local-sort"
) -> Tuple[PackedStringArray, np.ndarray]:
    """Sort ``strings`` into a packed run and ``int64`` LCPs inside ``phase``.

    ``msd_radix`` sorts the packed block (zero-copy when it already is one)
    with the vectorized sorter, the argsort or the word radix kernel, and
    gets a packed run back.  The other sorters run over ``list[bytes]``;
    their output is packed once here.
    """
    if sorter == "msd_radix":
        strings = PackedStringArray.from_strings(strings)
    with comm.phase(phase):
        stats = CharStats()
        out, lcps = sort_strings_with_lcp(strings, sorter, stats)
        comm.record_local_work(stats.chars_inspected, len(out))
    return PackedStringArray.from_strings(out), np.asarray(lcps, dtype=np.int64)
