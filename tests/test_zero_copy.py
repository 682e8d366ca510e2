"""The packed hot path never materialises a run as ``list[bytes]``.

Rank programs exchange, merge and return :class:`PackedStringArray` runs,
and ``to_list()`` copies a run's whole arena into python objects.  This
gate records which function calls ``to_list`` on a rank's thread while the
six paper algorithms plus ``auto`` sort the conformance corpus at p in
{3, 4} over every exchange topology on the threads engine.  No caller is
allowed: MS-simple and FKmerge merge their packed runs with the local
sort's word radix.  List views built on the main thread (a
``SortResult``'s, the output checkers') are outside the rank programs and
are not recorded.  MS is also held to the gate on a block behind one
shared prefix, whose ranks each merge over 1024 strings and so take the
merge's word radix.

Two seeded bugs show that the gate names the function at fault: a
``decode_run`` that re-packs its run through ``to_list()`` and a spec
whose ``run`` wraps ``merge_sort`` and returns its merged run as a list.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from typing import Set

import pytest

from engine_conformance import PAPER_ALGORITHMS, TOPOLOGIES, conformance_workload
from inputs import shared_prefix
from repro.dist.api import RankOutput, merge_sort
from repro.dist.exchange import LcpCompressedBlock
from repro.session import Cluster, MSSimpleSpec, MSSpec, spec_class
from repro.strings.packed import PackedStringArray

ALGORITHMS = PAPER_ALGORITHMS + ("auto",)
NUM_PES = (3, 4)


def materialising_callers(
    monkeypatch, algorithm: str, topology: str, spec_cls=None, strings=None
) -> Set[str]:
    """Names of the functions that call ``to_list`` on a rank's thread
    while ``strings`` (default: the conformance corpus) are sorted by
    ``spec_cls`` (default: ``algorithm``'s spec class)."""
    callers: Set[str] = set()
    to_list = PackedStringArray.to_list

    def recording(self):
        if threading.current_thread() is not threading.main_thread():
            frame = sys._getframe(1)
            # iteration and comparison reach to_list through the dunders
            while (
                frame.f_globals.get("__name__") == "repro.strings.packed"
                and frame.f_code.co_name.startswith("__")
            ):
                frame = frame.f_back
            callers.add(frame.f_code.co_name)
        return to_list(self)

    monkeypatch.setattr(PackedStringArray, "to_list", recording)
    spec = (spec_cls or spec_class(algorithm))(seed=3)
    for p in NUM_PES:
        with Cluster(num_pes=p, engine="threads", exchange_topology=topology) as cluster:
            cluster.sort(
                conformance_workload() if strings is None else strings, spec, check=True
            )
    return callers


def assert_zero_copy(monkeypatch, algorithm: str, topology: str, spec_cls=None) -> None:
    extra = materialising_callers(monkeypatch, algorithm, topology, spec_cls)
    assert not extra, (
        f"{algorithm} over {topology}: to_list() called on a rank by {sorted(extra)}"
    )


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_ranks_never_materialise(monkeypatch, algorithm, topology):
    assert_zero_copy(monkeypatch, algorithm, topology)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_the_merge_radix_stays_zero_copy(monkeypatch, topology):
    import repro.sequential.lcp_losertree as losertree

    merged = []
    radix = losertree._word_radix

    def counting(arr, depth):
        merged.append(len(arr))
        return radix(arr, depth)

    monkeypatch.setattr(losertree, "_word_radix", counting)
    extra = materialising_callers(
        monkeypatch, "ms", topology, strings=shared_prefix(6000, seed=7)
    )
    assert not extra, f"ms over {topology}: to_list() called on a rank by {sorted(extra)}"
    # every rank of p = 3 and p = 4 merged on the radix
    assert len(merged) == sum(NUM_PES) and min(merged) >= 1024


def listing_merge_sort(comm, strings, spec):
    """``merge_sort`` returning its merged run as a list: a seeded caller."""
    output = merge_sort(comm, strings, spec)
    return RankOutput(output.strings.to_list(), output.lcps)


@dataclass(frozen=True)
class ListingMSSimpleSpec(MSSimpleSpec):
    """MS-simple whose rank program is the seeded caller."""

    def run(self, comm, local):
        return listing_merge_sort(comm, local, self)


@dataclass(frozen=True)
class ListingMSSpec(MSSpec):
    """MS whose rank program is the seeded caller."""

    def run(self, comm, local):
        return listing_merge_sort(comm, local, self)


def test_the_recorder_sees_a_caller(monkeypatch):
    # the recorder works: with no caller left in the rank programs, it
    # names a seeded one
    callers = materialising_callers(
        monkeypatch, "ms-simple", "direct", ListingMSSimpleSpec
    )
    assert callers == {"listing_merge_sort"}


def test_a_materialising_decode_is_named(monkeypatch):
    zero_copy_decode = LcpCompressedBlock.decode_run

    def decode_run(self):
        run, lcps = zero_copy_decode(self)
        return PackedStringArray.from_strings(run.to_list()), lcps

    monkeypatch.setattr(LcpCompressedBlock, "decode_run", decode_run)
    with pytest.raises(AssertionError, match=r"\['decode_run'\]"):
        assert_zero_copy(monkeypatch, "ms", "direct")


def test_a_rank_program_returning_a_list_is_named(monkeypatch):
    with pytest.raises(AssertionError, match=r"\['listing_merge_sort'\]"):
        assert_zero_copy(monkeypatch, "ms", "direct", ListingMSSpec)
