"""Rank programs and result shapes of the distributed string sorters.

The public API lives in :mod:`repro.session`: a
:class:`~repro.session.Cluster` running typed
:class:`~repro.session.SortSpec` configurations through the pluggable
algorithm registry.  This module keeps

* the per-algorithm rank programs (:func:`ms_sort`, :func:`pdms_sort`,
  :func:`fkmerge_sort`, plus :func:`repro.dist.hquick.hquick_sort`), which
  read their knobs off the spec and are usable directly with
  :func:`repro.mpi.run_spmd` when a caller wants to embed a sorter inside a
  larger SPMD computation;
* :class:`RankOutput`, what a rank program registered with the session
  returns, and :class:`SortResult`, what :meth:`Cluster.sort` returns;
* :func:`distribute_strings`, the input distribution.

Algorithms (Sections IV-VI):

========== =================================================================
hquick      hypercube quicksort, strings as atoms (baseline)
fkmerge     Fischer-Kurpicz merge sort: centralised splitters, atomic merge
ms-simple   distributed merge sort without the LCP optimisations
ms          merge sort with LCP compression and LCP-aware multiway merging
pdms        prefix-doubling merge sort: only DIST prefixes are communicated
pdms-golomb PDMS with Golomb-coded fingerprint messages
========== =================================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..mpi.comm import Communicator
from ..net.cost_model import DEFAULT_MACHINE, MachineModel
from ..net.metrics import TrafficReport
from ..sequential import sort_strings_with_lcp
from ..sequential.lcp_losertree import lcp_multiway_merge, lcp_multiway_merge_packed
from ..sequential.losertree import multiway_merge
from ..sequential.stats import CharStats
from ..strings.lcp import lcp_array
from ..strings.packed import (
    PackedStringArray,
    clip_lcps,
    concat_runs,
    packed_lcp_array,
    sort_with_order,
    truncate,
)
from ..strings.stringset import StringSet, validate_strings
from .exchange import exchange_buckets
from .hquick import hquick_sort
from .partition import split_into_buckets
from .prefix_doubling import approximate_dist_prefixes
from .splitters import determine_splitters

__all__ = [
    "SortResult",
    "RankOutput",
    "distribute_strings",
    "ms_sort",
    "pdms_sort",
    "fkmerge_sort",
    "hquick_sort",
]


# ---------------------------------------------------------------------------
# input distribution
# ---------------------------------------------------------------------------

def _distribute_packed(
    data: PackedStringArray, num_pes: int, by: str
) -> List[PackedStringArray]:
    """Zero-copy distribution of a packed array: blocks are buffer views."""
    n = len(data)
    if by == "strings":
        return [
            data[_strings_lo(n, num_pes, r) : _strings_lo(n, num_pes, r + 1)]
            for r in range(num_pes)
        ]
    if by == "chars":
        total = data.num_chars
        if total == 0:
            return _distribute_packed(data, num_pes, "strings")
        # vectorized twin of the scalar greedy loop: after appending string
        # i the target block is min(p-1, cum_i * p // total), and string i
        # lands in the block that was current *before* it was appended
        cum = np.cumsum(data.lengths)
        after = np.minimum(num_pes - 1, (cum * num_pes) // total)
        owner = np.concatenate([np.zeros(1, dtype=np.int64), after[:-1]]) if n else after
        counts = np.bincount(owner, minlength=num_pes) if n else np.zeros(num_pes, int)
        bounds = np.zeros(num_pes + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        return [data[int(bounds[r]) : int(bounds[r + 1])] for r in range(num_pes)]
    raise ValueError(f"unknown distribution criterion {by!r}; use 'strings' or 'chars'")


def _strings_lo(n: int, num_pes: int, r: int) -> int:
    base, rem = divmod(n, num_pes)
    return r * base + min(r, rem)


def distribute_strings(
    data: Sequence, num_pes: int, by: str = "strings"
) -> List[List[bytes]]:
    """Deal a string array into ``num_pes`` contiguous, balanced blocks.

    ``by="strings"`` balances string counts (block sizes differ by at most
    one); ``by="chars"`` balances character mass, the right notion when
    string lengths are skewed.  Order is preserved; ``str`` inputs are
    UTF-8 encoded.

    :class:`StringSet` and :class:`PackedStringArray` inputs are distributed
    **zero-copy**: each block is a view into the shared character buffer.
    """
    if num_pes <= 0:
        raise ValueError("num_pes must be positive")
    if isinstance(data, StringSet):
        data = data.packed()
    if isinstance(data, PackedStringArray):
        return _distribute_packed(data, num_pes, by)
    strings = validate_strings(data)
    n = len(strings)
    if by == "strings":
        base, rem = divmod(n, num_pes)
        blocks: List[List[bytes]] = []
        pos = 0
        for r in range(num_pes):
            size = base + (1 if r < rem else 0)
            blocks.append(strings[pos : pos + size])
            pos += size
        return blocks
    if by == "chars":
        total = sum(len(s) for s in strings)
        if total == 0:
            # no character mass to balance (e.g. all-empty strings):
            # balancing counts is the only meaningful criterion left
            return distribute_strings(strings, num_pes, by="strings")
        blocks = [[] for _ in range(num_pes)]
        cum = 0
        block = 0
        for s in strings:
            blocks[block].append(s)
            cum += len(s)
            while block < num_pes - 1 and cum * num_pes >= (block + 1) * total:
                block += 1
        return blocks
    raise ValueError(f"unknown distribution criterion {by!r}; use 'strings' or 'chars'")


# ---------------------------------------------------------------------------
# rank programs
# ---------------------------------------------------------------------------

def _local_sort(comm: Communicator, strings, sorter: str):
    """Step 1: sort this rank's block; packed in, packed out on the hot path.

    With ``comm.config.packed`` and the default ``msd_radix`` sorter the
    block is lifted into a :class:`PackedStringArray` (zero-copy when it
    already is one) and :func:`repro.sequential.msd_radix.msd_radix_sort`
    dispatches to the vectorized fixed-width-key sorter — the sorted run and
    its LCP array stay packed end-to-end.  Every other configuration runs
    the original scalar sorters over ``list[bytes]``.
    """
    hot = comm.config.packed and sorter == "msd_radix"
    if isinstance(strings, PackedStringArray):
        if not hot:
            strings = strings.to_list()
    elif hot:
        strings = PackedStringArray.from_strings(strings)
    with comm.phase("local-sort"):
        stats = CharStats()
        out, lcps = sort_strings_with_lcp(strings, sorter, stats)
        comm.record_local_work(stats.chars_inspected, len(out))
    return out, lcps


def _as_hot_path(comm: Communicator, local_sorted, lcps):
    """Lift a locally sorted run onto the packed hot path (``comm.config.packed``).

    From here to the exchange everything — sampling, bucket boundaries,
    front coding, wire accounting — runs over the contiguous buffer; with
    the fast paths disabled the original ``list``-based code runs instead.
    """
    if comm.config.packed:
        return (
            PackedStringArray.from_strings(local_sorted),
            np.asarray(lcps, dtype=np.int64),
        )
    return local_sorted, lcps


def ms_sort(
    comm: Communicator, strings: Sequence[bytes], spec: Any, lcp: bool = True
) -> Tuple[List[bytes], List[int]]:
    """Distributed merge sort (Section V); returns ``(sorted, lcp_array)``.

    ``spec`` is an :class:`~repro.session.MSSpec`-shaped configuration: its
    ``local_sorter``, ``sampling``, ``sample_sort``, ``oversampling`` and
    ``exchange_topology`` are read.  ``lcp`` switches the LCP machinery —
    front coding on the wire (Step 3) and the LCP loser-tree merge
    (Step 4) — on for MS and off for MS-simple.
    """
    local_sorted, lcps = _local_sort(comm, strings, spec.local_sorter)
    local_view, lcps_view = _as_hot_path(comm, local_sorted, lcps)
    splitters = determine_splitters(
        comm,
        local_view,
        scheme=spec.sampling,
        sample_sort=spec.sample_sort,
        oversampling=spec.oversampling,
    )
    buckets = split_into_buckets(local_view, lcps_view, splitters)
    received = exchange_buckets(
        comm,
        buckets,
        lcp_compression=lcp,
        ship_lcps=lcp,
        topology=spec.exchange_topology,
    )
    with comm.phase("merge"):
        stats = CharStats()
        runs = [run for run, _ in received]
        if lcp:
            run_lcps = [h for _, h in received]
            if runs and all(isinstance(r, PackedStringArray) for r in runs):
                # packed end-to-end: batched loser-tree emit into one packed
                # output buffer; materialised to lists only at the rank
                # output boundary (contents bit-identical to the scalar merge)
                merged, merged_lcps = lcp_multiway_merge_packed(
                    runs, run_lcps, stats
                )
                out = merged.to_list()
                out_lcps = merged_lcps.tolist()
            else:
                out, out_lcps = lcp_multiway_merge(runs, run_lcps, stats)
        else:
            out = multiway_merge(runs, stats)
            out_lcps = lcp_array(out)
        comm.record_local_work(stats.chars_inspected, len(out))
    return out, out_lcps


def fkmerge_sort(
    comm: Communicator, strings: Sequence[bytes], spec: Any
) -> Tuple[List[bytes], None]:
    """The FKmerge baseline: centralised sample sort, atomic multiway merge.

    No LCP machinery anywhere — full strings travel and the merge rescans
    common prefixes — and the splitters are sorted on PE 0 (the scalability
    bottleneck Section VII-D measures).  Unlike the original implementation,
    repeated strings are handled (documented deviation from the paper).
    ``spec`` is a :class:`~repro.session.FKMergeSpec`-shaped configuration:
    its ``local_sorter``, ``oversampling`` and ``exchange_topology`` are read.
    """
    local_sorted, lcps = _local_sort(comm, strings, spec.local_sorter)
    local_view, lcps_view = _as_hot_path(comm, local_sorted, lcps)
    splitters = determine_splitters(
        comm,
        local_view,
        scheme="string",
        sample_sort="central",
        oversampling=spec.oversampling,
    )
    buckets = split_into_buckets(local_view, lcps_view, splitters)
    # the baseline has no LCP machinery on the wire: strings travel verbatim
    received = exchange_buckets(
        comm,
        buckets,
        lcp_compression=False,
        ship_lcps=False,
        topology=spec.exchange_topology,
    )
    with comm.phase("merge"):
        stats = CharStats()
        out = multiway_merge([run for run, _ in received], stats)
        comm.record_local_work(stats.chars_inspected, len(out))
    return out, None


def pdms_sort(
    comm: Communicator, strings: Sequence[bytes], spec: Any, golomb: bool = False
):
    """Prefix-doubling merge sort (Section VI).

    Returns ``(prefixes, lcp_array, origins, extra)``: the globally sorted
    approximate distinguishing prefixes held by this rank, their LCP array,
    per-prefix ``(source PE, position in that PE's locally sorted array)``
    origin labels, and a dict of protocol statistics.  ``spec`` is a
    :class:`~repro.session.PDMSSpec`-shaped configuration: the sampling
    knobs of :func:`ms_sort` plus ``epsilon`` and ``initial_length`` are
    read.  ``golomb`` Golomb-codes the fingerprint messages (PDMS-Golomb).
    """
    local_sorted, lcps = _local_sort(comm, strings, spec.local_sorter)
    # the run stays packed from here on (a list-sorted block is packed once)
    packed = PackedStringArray.from_strings(local_sorted)
    doubling = approximate_dist_prefixes(
        comm,
        packed,
        initial_length=spec.initial_length,
        epsilon=spec.epsilon,
        golomb=golomb,
    )
    # prefixes of a sorted array are sorted (every prefix extends past the
    # LCP with its neighbours, by the DIST guarantee), and their LCP array
    # is the local one clipped to the prefix lengths
    prefixes = truncate(packed, doubling.lengths)
    prefix_lcps = clip_lcps(prefixes, lcps)

    splitters = determine_splitters(
        comm,
        prefixes,
        scheme=spec.sampling,
        sample_sort=spec.sample_sort,
        oversampling=spec.oversampling,
        weights=doubling.lengths if spec.sampling == "character" else None,
    )
    buckets = split_into_buckets(prefixes, prefix_lcps, splitters)
    # origin labels are (source PE, position in that PE's locally sorted
    # array).  Each bucket is a contiguous run of that array, so only its
    # start offset needs to travel; the receiver learns the source PE from
    # the message slot and reconstructs the positions by counting.
    starts = np.cumsum([0] + [len(bucket) for bucket, _ in buckets[:-1]]).tolist()
    received = exchange_buckets(
        comm,
        buckets,
        lcp_compression=True,
        payloads=starts,
        topology=spec.exchange_topology,
    )

    with comm.phase("merge"):
        # one stable sort over the runs back to back in source order: ties
        # keep the lower source PE first, as a k-way merge would, and the
        # order says which run and position every output came from
        runs, bounds = concat_runs([run for run, _, _ in received])
        merged, order = sort_with_order(runs)
        src = np.searchsorted(bounds[1:], order, side="right")
        firsts = np.array([first for _, _, first in received], dtype=np.int64)
        origins = list(zip(src.tolist(), (order - bounds[src] + firsts[src]).tolist()))
        out = merged.to_list()
        out_lcps = packed_lcp_array(merged).tolist()
        comm.record_local_work(merged.num_chars, len(out))

    extra = {
        "doubling_rounds": doubling.rounds,
        "approx_dist_total": comm.allreduce(sum(doubling.lengths)),
        "fingerprints_sent": comm.allreduce(doubling.fingerprints_sent),
    }
    return out, out_lcps, origins, extra


# ---------------------------------------------------------------------------
# result shapes
# ---------------------------------------------------------------------------

@dataclass
class RankOutput:
    """Uniform per-rank result shape across all algorithms.

    Custom rank programs registered via
    :func:`repro.session.register_algorithm` return one of these: the
    rank's sorted strings, optionally their LCP array, the PDMS-style
    origin labels, and a dict of protocol statistics (``extra`` values must
    agree across ranks — the result assembly asserts it).
    """

    strings: List[bytes]
    lcps: Optional[List[int]] = None
    origins: Optional[List[Tuple[int, int]]] = None
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class SortResult:
    """Everything a caller (or the benchmark harness) wants to know about a run."""

    algorithm: str
    num_pes: int
    num_strings: int
    num_chars: int
    inputs_per_pe: List[List[bytes]]
    outputs_per_pe: List[List[bytes]]
    lcps_per_pe: List[Optional[List[int]]]
    origins_per_pe: Optional[List[List[Tuple[int, int]]]]
    report: TrafficReport
    extra: Dict[str, Any] = field(default_factory=dict)
    #: the machine model of the cluster that produced this result (used by
    #: :meth:`modeled_time` when no explicit model is passed); ``None``
    #: falls back to :data:`repro.net.cost_model.DEFAULT_MACHINE`
    machine: Optional[MachineModel] = None

    @property
    def sorted_strings(self) -> List[bytes]:
        """The globally sorted output as one flat list (PE order)."""
        return [s for part in self.outputs_per_pe for s in part]

    def bytes_per_string(self) -> float:
        """The paper's headline metric: total bytes sent / input strings."""
        return self.report.bytes_per_string(self.num_strings)

    def modeled_time(self, machine: Optional[MachineModel] = None) -> float:
        """Modelled running time (local work bottleneck + communication).

        ``machine`` defaults to the model of the cluster that produced this
        result (:attr:`machine`), falling back to
        :data:`~repro.net.cost_model.DEFAULT_MACHINE`.
        """
        if machine is None:
            machine = self.machine if self.machine is not None else DEFAULT_MACHINE
        return self.report.modeled_total_time(machine)

