"""Property-based tests (hypothesis) of the distributed layer.

These drive the full SPMD stack with arbitrary inputs and PE counts, checking
the output contracts of Sections V/VI.  Example counts are kept moderate —
every example spins up a simulated machine — but the strategies are chosen to
hit the painful corners: tiny alphabets, duplicates, empty strings, empty
ranks, more PEs than strings.
"""

from unittest import mock

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from oracles.lcp import lcp
from repro.dist import api
from repro.dist.partition import select_splitters, string_based_samples
from repro.mpi import run_spmd
from repro.sequential import multiway_merge
from repro.session import Cluster, FKMergeSpec, HQuickSpec, MSSimpleSpec, MSSpec, PDMSSpec
from repro.strings import dn_instance
from repro.strings.checker import check_sort
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
    check_sort(res.inputs_per_pe, res.rank_outputs)
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
    check_sort(res.inputs_per_pe, res.rank_outputs)
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
    check_sort(res.inputs_per_pe, res.rank_outputs)


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


# -- the merge of MS-simple and FKmerge, held to sorted() and the atomic tree --

_MERGE_STRINGS = {
    # NUL bytes sort below every other byte and pad the radix's words
    "nul": st.binary(max_size=20).map(lambda b: bytes(c % 3 for c in b)),
    "duplicates": st.sampled_from(
        [b"", b"a", b"ab", b"abababab", b"abababab\x00", b"ababababab", b"b"]
    ),
    "empty": st.just(b""),
    # past the argsort's 4096-byte key width, behind one shared prefix
    "long": st.builds(
        lambda n, tail: b"ab" * n + tail,
        st.integers(min_value=2049, max_value=2060),
        st.binary(max_size=12),
    ),
}


def _run_lists(strings):
    """Run lists of ``strings``: any shape (empty runs included), one
    string per run, and one live run among empty ones."""
    return st.one_of(
        st.lists(st.lists(strings, max_size=8), min_size=1, max_size=6),
        st.lists(st.lists(strings, min_size=1, max_size=1), min_size=1, max_size=6),
        st.builds(
            lambda run, before, after: [[]] * before + [run] + [[]] * after,
            st.lists(strings, min_size=1, max_size=12),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
        ),
    )


def _merge_branch(runs, spec):
    """What ``merge_sort``'s merge stage makes of ``runs`` as the received
    messages, on one rank: the exchange hands it the packed runs."""
    packed = [PackedStringArray.from_strings(run) for run in runs]

    def exchange(comm, buckets, **kwargs):
        return [(run,) for run in packed]

    with mock.patch.object(api, "exchange_buckets", exchange):
        (output,), _ = run_spmd(1, api.merge_sort, args_per_rank=[([],)], common_args=(spec,))
    return output


class TestNoLcpMerge:
    """The merge stage of the merge sorts without LCPs (MS-simple and
    FKmerge): its strings equal ``sorted()`` of the inputs and the scalar
    atomic loser tree's, its LCPs the definition's (FKmerge: none)."""

    @settings(**{**_SETTINGS, "max_examples": 150})
    @given(
        runs=st.sampled_from(list(_MERGE_STRINGS.values())).flatmap(_run_lists),
        spec=st.sampled_from([MSSimpleSpec(), FKMergeSpec()]),
    )
    def test_merges_like_the_atomic_tree(self, runs, spec):
        runs = [sorted(run) for run in runs]
        output = _merge_branch(runs, spec)
        merged = output.strings.to_list()
        assert merged == sorted(s for run in runs for s in run)
        assert merged == multiway_merge(runs)
        if spec.returns_lcps:
            want = [0] + [lcp(a, b) for a, b in zip(merged, merged[1:])]
            assert output.lcps.tolist() == want[: len(merged)]
        else:
            assert output.lcps is None


def test_lcp_merging_inspects_fewer_chars_than_ms_simple():
    """Sec. II-C's contrast: on D/N 0.5 strings MS, which ships LCPs and
    merges with them, inspects fewer characters per string than MS-simple."""
    data = dn_instance(20000, 0.5, length=100, seed=41)
    per_string = {}
    for spec in (MSSpec(), MSSimpleSpec()):
        res = Cluster(4).sort(data, spec)
        per_string[spec.algorithm] = sum(res.report.chars_inspected_per_pe) / len(data)
    assert per_string["ms"] < per_string["ms-simple"], per_string
