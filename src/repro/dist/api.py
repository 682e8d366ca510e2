"""Rank programs and result shapes of the distributed string sorters.

The public API lives in :mod:`repro.session`: a
:class:`~repro.session.Cluster` running typed
:class:`~repro.session.SortSpec` configurations, each of which runs its
rank program through :meth:`~repro.session.SortSpec.run`.  This module keeps

* the rank programs: :func:`merge_sort`, one program for all five merge
  sorts, whose spec class switches its stages on and off (the algorithms
  below are presets of it), and :func:`repro.dist.hquick.hquick_sort`.
  They read their knobs off the spec and are usable directly with
  :func:`repro.mpi.run_spmd` when a caller wants to embed a sorter inside a
  larger SPMD computation;
* :class:`RankOutput`, what a spec's ``run`` returns, and
  :class:`SortResult`, what :meth:`Cluster.sort` returns;
* :func:`distribute_strings`, the input distribution.

Algorithms (Sections IV-VI):

========== =================================================================
hquick      hypercube quicksort, strings as atoms (baseline)
fkmerge     Fischer-Kurpicz merge sort: MS-simple with central string
            sampling, returning no LCP array
ms-simple   distributed merge sort without the LCP optimisations
ms          merge sort with LCP compression and LCP-aware multiway merging
pdms        prefix-doubling merge sort: only DIST prefixes are communicated
pdms-golomb PDMS with Golomb-coded fingerprint messages
========== =================================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..mpi.comm import Communicator
from ..net.cost_model import DEFAULT_MACHINE, MachineModel
from ..net.metrics import TrafficReport
from ..sequential.lcp_losertree import lcp_multiway_merge_packed
from ..sequential.stats import CharStats
from ..sequential.vector_sort import _word_radix
from ..strings.packed import (
    PackedStringArray,
    clip_lcps,
    concat_runs,
    packed_lcp_array,
    sort_with_order,
    string_lengths,
    truncate,
    validate_strings,
)
from .exchange import exchange_buckets
from .hquick import hquick_sort
from .local_sort import local_sort
from .partition import split_into_buckets
from .prefix_doubling import approximate_dist_prefixes
from .splitters import determine_splitters

__all__ = [
    "SortResult",
    "RankOutput",
    "distribute_strings",
    "merge_sort",
    "hquick_sort",
]


# ---------------------------------------------------------------------------
# input distribution
# ---------------------------------------------------------------------------

def _block_counts(strings: Sequence, num_pes: int, by: str) -> np.ndarray:
    """Strings per block of :func:`distribute_strings`.

    ``by="chars"`` is the greedy rule — after appending string ``i`` the
    current block is ``min(p-1, cum_i * p // total)``, and string ``i`` lands
    in the block that was current *before* it was appended — as one
    ``cumsum`` over the string lengths.
    """
    if by not in ("strings", "chars"):
        raise ValueError(f"unknown distribution criterion {by!r}; use 'strings' or 'chars'")
    if by == "chars":
        cum = np.cumsum(string_lengths(strings))
        if len(cum) and cum[-1] > 0:
            after = np.minimum(num_pes - 1, (cum * num_pes) // cum[-1])
            owner = np.concatenate([np.zeros(1, dtype=np.int64), after[:-1]])
            return np.bincount(owner, minlength=num_pes)
        # no character mass to balance (e.g. all-empty strings): balancing
        # counts is the only meaningful criterion left
    base, rem = divmod(len(strings), num_pes)
    return base + (np.arange(num_pes) < rem)


def distribute_strings(
    data: Sequence, num_pes: int, by: str = "strings"
) -> List[Union[List[bytes], PackedStringArray]]:
    """Deal a string array into ``num_pes`` contiguous, balanced blocks.

    ``by="strings"`` balances string counts (block sizes differ by at most
    one); ``by="chars"`` balances character mass, the right notion when
    string lengths are skewed.  Order is preserved.

    Each block is a slice of the validated input
    (:func:`~repro.strings.packed.validate_strings`): a ``list[bytes]``
    for a sequence of ``bytes``/``str`` (``str`` UTF-8 encoded), and a
    **zero-copy** view into the shared character buffer for a
    :class:`PackedStringArray`.
    """
    if num_pes <= 0:
        raise ValueError("num_pes must be positive")
    strings = validate_strings(data)
    bounds = [0] + np.cumsum(_block_counts(strings, num_pes, by)).tolist()
    return [strings[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# rank programs
# ---------------------------------------------------------------------------

def merge_sort(comm: Communicator, strings: Sequence[bytes], spec: Any) -> RankOutput:
    """The merge sorts of Sections V-VI; the spec's class is the preset.

    Local sort, splitters, partition, one all-to-all, a multiway merge, with
    the knobs read off ``spec`` and the stages picked by its class-level
    switches: ``prefix_doubling`` sends only approximate distinguishing
    prefixes (``golomb``: Golomb-coded fingerprints) and returns their
    origins, ``(source PE, position in that PE's sorted block)``, and
    protocol statistics; ``lcp`` front-codes the buckets and merges with
    the LCP loser tree (prefix doubling: one stable sort; neither: the
    local sort's word radix over the runs back to back); ``returns_lcps``
    returns the output's ``int64`` LCP array.
    """
    local_sorted, lcps = local_sort(comm, strings)
    doubling = starts = origins = None
    if spec.prefix_doubling:
        doubling = approximate_dist_prefixes(
            comm,
            local_sorted,
            initial_length=spec.initial_length,
            epsilon=spec.epsilon,
            golomb=spec.golomb,
        )
        # prefixes of a sorted array are sorted (every prefix extends past the
        # LCP with its neighbours, by the DIST guarantee), and their LCP array
        # is the local one clipped to the prefix lengths; character sampling
        # then weighs each string by its prefix length, the mass that travels
        local_sorted = truncate(local_sorted, doubling.lengths)
        lcps = clip_lcps(local_sorted, lcps)

    splitters = determine_splitters(
        comm,
        local_sorted,
        scheme=spec.sampling,
        sample_sort=spec.sample_sort,
        oversampling=spec.oversampling,
    )
    buckets = split_into_buckets(local_sorted, lcps, splitters)
    if doubling is not None:
        # Each bucket is a contiguous run of the locally sorted array, so
        # only its start offset needs to travel; the receiver learns the
        # source PE from the message slot and counts the positions.
        starts = np.cumsum([0] + [len(bucket) for bucket, _ in buckets[:-1]]).tolist()
    received = exchange_buckets(
        comm,
        buckets,
        lcp_compression=spec.lcp,
        payloads=starts,
        ship_lcps=spec.lcp,
        topology=spec.exchange_topology,
    )

    with comm.phase("merge"):
        stats = CharStats()
        runs = [message[0] for message in received]
        if doubling is not None:
            # one stable sort over the runs back to back in source order: ties
            # keep the lower source PE first, as a k-way merge would, and the
            # order says which run and position every output came from
            concatenated, bounds = concat_runs(runs)
            merged, order = sort_with_order(concatenated)
            src = np.searchsorted(bounds[1:], order, side="right")
            firsts = np.array([first for _, _, first in received], dtype=np.int64)
            origins = np.stack([src, order - bounds[src] + firsts[src]], axis=1)
            stats.add_chars(merged.num_chars)
            merged_lcps = packed_lcp_array(merged)
        elif spec.lcp:
            # batched loser-tree emit into one packed output buffer
            merged, merged_lcps = lcp_multiway_merge_packed(
                runs, [h for _, h in received], stats
            )
        else:
            # the local sort's word radix, charged the bytes it reads
            merged, merged_lcps, read = _word_radix(concat_runs(runs)[0])
            stats.add_chars(read)
        comm.record_local_work(stats.chars_inspected, len(merged))

    output = RankOutput(merged, merged_lcps if spec.returns_lcps else None, origins)
    if doubling is not None:
        # ``fingerprints_sent`` counts candidates hashed, not values sent
        output.extra = {
            "doubling_rounds": doubling.rounds,
            "approx_dist_total": comm.allreduce(sum(doubling.lengths)),
            "fingerprints_sent": comm.allreduce(doubling.fingerprints_sent),
        }
    return output


# ---------------------------------------------------------------------------
# result shapes
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class RankOutput:
    """Uniform per-rank result shape across all algorithms.

    Every :meth:`repro.session.SortSpec.run`, a custom one included,
    returns one of these: the rank's sorted strings, optionally their LCP
    array, the PDMS-style origin of each output — the source PE and the
    position in that PE's sorted input block — and a dict of protocol
    statistics (``extra`` values must agree across ranks — the result
    assembly asserts it).

    The strings may be a packed run or a ``list[bytes]``, the LCPs and
    origins arrays or lists; they are held packed — a
    :class:`PackedStringArray`, ``int64`` LCPs and an ``(n, 2)`` ``int64``
    origins array — packing a list once, here.
    """

    strings: PackedStringArray
    lcps: Optional[np.ndarray] = None
    origins: Optional[np.ndarray] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.strings = PackedStringArray.from_strings(self.strings)
        if self.lcps is not None:
            self.lcps = np.asarray(self.lcps, dtype=np.int64)
        if self.origins is not None:
            self.origins = np.asarray(self.origins, dtype=np.int64).reshape(-1, 2)


@dataclass(eq=False)
class SortResult:
    """Everything a caller (or the figure table) wants to know about a run.

    The per-PE outputs stay packed in :attr:`rank_outputs`; the list views
    (:attr:`outputs_per_pe`, :attr:`lcps_per_pe`, :attr:`origins_per_pe`,
    :attr:`sorted_strings`) are built once, on first access.
    """

    algorithm: str
    num_pes: int
    num_strings: int
    num_chars: int
    #: each PE's input block as the caller handed it in, validated
    inputs_per_pe: List[Union[List[bytes], PackedStringArray]]
    #: each PE's packed output run, LCPs and origins
    rank_outputs: List[RankOutput]
    report: TrafficReport
    extra: Dict[str, Any] = field(default_factory=dict)
    #: the machine model of the cluster that produced this result (used by
    #: :meth:`modeled_time` when no explicit model is passed); ``None``
    #: falls back to :data:`repro.net.cost_model.DEFAULT_MACHINE`
    machine: Optional[MachineModel] = None

    @cached_property
    def outputs_per_pe(self) -> List[List[bytes]]:
        """Each PE's sorted output as a ``list[bytes]``."""
        return [list(r.strings) for r in self.rank_outputs]

    @cached_property
    def lcps_per_pe(self) -> List[Optional[List[int]]]:
        """Each PE's LCP array as a ``list[int]`` (``None`` where absent)."""
        return [None if r.lcps is None else r.lcps.tolist() for r in self.rank_outputs]

    @cached_property
    def origins_per_pe(self) -> Optional[List[List[Tuple[int, int]]]]:
        """Each PE's origin labels: ``(source PE, position in that PE's
        sorted input block)`` per output; ``None`` unless some rank reported
        origins."""
        if all(r.origins is None for r in self.rank_outputs):
            return None
        return [
            [] if r.origins is None else list(map(tuple, r.origins.tolist()))
            for r in self.rank_outputs
        ]

    @cached_property
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

