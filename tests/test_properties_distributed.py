"""Property-based tests (hypothesis) of the distributed layer.

These drive the full SPMD stack with arbitrary inputs and PE counts, checking
the output contracts of Sections V/VI.  Example counts are kept moderate —
every example spins up a simulated machine — but the strategies are chosen to
hit the painful corners: tiny alphabets, duplicates, empty strings, empty
ranks, more PEs than strings.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.dist.partition import select_splitters, string_based_samples
from repro.session import Cluster, FKMergeSpec, HQuickSpec, MSSimpleSpec, MSSpec, PDMSSpec
from repro.strings.checker import check_distributed_sort, check_prefix_permutation
from repro.strings.packed import PackedStringArray, packed_bucket_boundaries

# small alphabet -> many shared prefixes and exact duplicates
tiny_strings = st.binary(max_size=8).map(lambda b: bytes(97 + (c % 2) for c in b))
string_lists = st.lists(tiny_strings, max_size=80)

_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@settings(**_SETTINGS)
@given(strings=string_lists, p=st.integers(min_value=1, max_value=5))
def test_ms_sorts_arbitrary_inputs(strings, p):
    res = Cluster(p).sort(strings, MSSpec())
    check_distributed_sort(res.inputs_per_pe, res.outputs_per_pe, res.lcps_per_pe)
    assert res.sorted_strings == sorted(strings)


@settings(**_SETTINGS)
@given(strings=string_lists, p=st.integers(min_value=1, max_value=5))
def test_ms_simple_sorts_arbitrary_inputs(strings, p):
    res = Cluster(p).sort(strings, MSSimpleSpec())
    assert res.sorted_strings == sorted(strings)


@settings(**_SETTINGS)
@given(strings=string_lists, p=st.integers(min_value=1, max_value=4))
def test_hquick_sorts_arbitrary_inputs(strings, p):
    res = Cluster(p).sort(strings, HQuickSpec())
    check_distributed_sort(res.inputs_per_pe, res.outputs_per_pe)
    assert res.sorted_strings == sorted(strings)


@settings(**_SETTINGS)
@given(strings=string_lists, p=st.integers(min_value=1, max_value=4))
def test_fkmerge_sorts_arbitrary_inputs(strings, p):
    res = Cluster(p).sort(strings, FKMergeSpec())
    assert res.sorted_strings == sorted(strings)


@settings(**_SETTINGS)
@given(strings=string_lists, p=st.integers(min_value=1, max_value=4))
def test_pdms_prefix_contract_on_arbitrary_inputs(strings, p):
    res = Cluster(p).sort(strings, PDMSSpec())
    check_prefix_permutation(res.inputs_per_pe, res.outputs_per_pe)


@settings(max_examples=60, deadline=None)
@given(
    strings=st.lists(tiny_strings, min_size=1, max_size=120),
    v=st.integers(min_value=1, max_value=12),
    parts=st.integers(min_value=1, max_value=8),
)
def test_sampling_and_bucketing_invariants(strings, v, parts):
    """Splitters from regular samples always yield a valid partition."""
    local = sorted(strings)
    samples = string_based_samples(local, v)
    assert len(samples) == (v if local else 0)
    splitters = select_splitters(sorted(samples), parts)
    bounds = packed_bucket_boundaries(PackedStringArray.from_strings(local), splitters)
    assert bounds[0] == 0 and bounds[-1] == len(local)
    assert all(a <= b for a, b in zip(bounds, bounds[1:]))
    # membership: every string of bucket j obeys the splitter fences
    for j in range(len(bounds) - 1):
        for s in local[bounds[j] : bounds[j + 1]]:
            if j > 0:
                assert s > splitters[j - 1]
            if j < len(splitters):
                assert s <= splitters[j]
