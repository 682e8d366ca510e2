"""The merge sorts are presets of one rank program, ``merge_sort``.

FKmerge, the baseline of Sections II-C and VII, is MS-simple with central
string sampling and no LCP output.  Those sampling settings are MS-simple's
defaults, so the two must agree on everything but the LCP arrays.
"""

import pytest

import repro.session.specs as specs
from repro.session import Cluster, FKMergeSpec, MSSimpleSpec, SortSpec, spec_class
from repro.strings.generators import dn_instance

MERGE_SORTS = ("fkmerge", "ms-simple", "ms", "pdms", "pdms-golomb")


@pytest.mark.parametrize("topology", ["direct", "hypercube", "grid"])
@pytest.mark.parametrize("p", [3, 4, 8])
def test_fkmerge_is_ms_simple_without_lcps(p, topology):
    data = dn_instance(3000, 0.3, length=30, seed=1)
    cluster = Cluster(p, exchange_topology=topology)
    fk = cluster.sort(data, FKMergeSpec())
    simple = cluster.sort(data, MSSimpleSpec())
    assert fk.outputs_per_pe == simple.outputs_per_pe
    assert fk.report.counts == simple.report.counts
    assert fk.report.collectives == simple.report.collectives
    assert fk.modeled_time() == simple.modeled_time()
    assert all(lcps is None for lcps in fk.lcps_per_pe)
    assert all(lcps is not None for lcps in simple.lcps_per_pe)


@pytest.mark.parametrize("name", MERGE_SORTS)
def test_every_merge_sort_runs_the_one_rank_program(name, monkeypatch):
    spec = spec_class(name)()
    merge_sort = specs.merge_sort
    called = []

    def recording(comm, strings, spec):
        called.append(type(spec))
        return merge_sort(comm, strings, spec)

    monkeypatch.setattr(specs, "merge_sort", recording)
    # threads: the ranks append to this process's list
    Cluster(3, engine="threads").sort(dn_instance(300, 0.3, length=20, seed=2), spec, check=True)
    assert called == [type(spec)] * 3


def test_fkmerge_sampling_is_pinned():
    with pytest.raises(ValueError):
        SortSpec.from_dict({"algorithm": "fkmerge", "sampling": "character"})
