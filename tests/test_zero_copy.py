"""The packed hot path never materialises a run as ``list[bytes]``.

Rank programs exchange, merge and return :class:`PackedStringArray` runs,
and ``to_list()`` copies a run's whole arena into python objects.  This
gate records which function calls ``to_list`` on a rank's thread while the
six paper algorithms plus ``auto`` sort the conformance corpus at p in
{3, 4} over every exchange topology on the threads engine.  The one
allowed caller is :func:`repro.sequential.losertree.multiway_merge`, the
atomic merge of MS-simple and FKmerge, which iterates its runs as
``bytes``.  List views built on the main thread (a ``SortResult``'s, the
output checkers') are outside the rank programs and are not recorded.

Two seeded bugs show that the gate names the function at fault: a
``decode_run`` that re-packs its run through ``to_list()`` and an
``ms_sort`` that returns its merged run as a list.
"""

from __future__ import annotations

import sys
import threading
from typing import Set

import pytest

from engine_conformance import PAPER_ALGORITHMS, TOPOLOGIES, conformance_workload
from repro.dist.exchange import LcpCompressedBlock
from repro.session import Cluster, default_registry
from repro.session import registry as registry_module
from repro.strings.packed import PackedStringArray

ALGORITHMS = PAPER_ALGORITHMS + ("auto",)
NUM_PES = (3, 4)
#: the only function a rank may call ``to_list`` from
ALLOWED = {"multiway_merge"}


def materialising_callers(monkeypatch, algorithm: str, topology: str) -> Set[str]:
    """Names of the functions that call ``to_list`` on a rank's thread."""
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
    spec = default_registry().spec_class(algorithm)(seed=3)
    for p in NUM_PES:
        with Cluster(num_pes=p, engine="threads", exchange_topology=topology) as cluster:
            cluster.sort(conformance_workload(), spec, check=True)
    return callers


def assert_zero_copy(monkeypatch, algorithm: str, topology: str) -> None:
    extra = materialising_callers(monkeypatch, algorithm, topology) - ALLOWED
    assert not extra, (
        f"{algorithm} over {topology}: to_list() called on a rank by {sorted(extra)}"
    )


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_ranks_materialise_only_in_the_atomic_merge(monkeypatch, algorithm, topology):
    assert_zero_copy(monkeypatch, algorithm, topology)


def test_the_atomic_merge_is_seen(monkeypatch):
    # the recorder works: MS-simple's merge is the one allowed caller
    assert materialising_callers(monkeypatch, "ms-simple", "direct") == ALLOWED


def test_a_materialising_decode_is_named(monkeypatch):
    zero_copy_decode = LcpCompressedBlock.decode_run

    def decode_run(self):
        run, lcps = zero_copy_decode(self)
        return PackedStringArray.from_strings(run.to_list()), lcps

    monkeypatch.setattr(LcpCompressedBlock, "decode_run", decode_run)
    with pytest.raises(AssertionError, match=r"\['decode_run'\]"):
        assert_zero_copy(monkeypatch, "ms", "direct")


def test_a_rank_program_returning_a_list_is_named(monkeypatch):
    rank_program = registry_module.ms_sort

    def ms_sort(comm, strings, spec, lcp=True):
        merged, merged_lcps = rank_program(comm, strings, spec, lcp)
        return merged.to_list(), merged_lcps

    monkeypatch.setattr(registry_module, "ms_sort", ms_sort)
    with pytest.raises(AssertionError, match=r"\['ms_sort'\]"):
        assert_zero_copy(monkeypatch, "ms", "direct")
