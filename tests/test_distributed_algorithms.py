"""Per-algorithm tests of the distributed sorters (hQuick, FKmerge, MS, PDMS).

Each algorithm is exercised through ``Cluster.sort`` (which also runs the
full contract checker) on inputs chosen to hit its specific mechanisms, plus
direct SPMD-level tests of properties a cluster sort does not expose.

The whole module runs once per engine of the conformance axis (the
module-scoped ``spmd_engine`` fixture below scopes ``REPRO_ENGINE``), so
every algorithm property proved here is proved on real OS processes, with
every payload pickled and with the ranks scheduled in a permuted order
too; engines the platform cannot run are skipped with the platform's
reason.
"""

import pytest

from engine_conformance import PAPER_ALGORITHMS, engine_params, set_engine
from repro.dist import merge_sort
from repro.dist.local_sort import local_sort
from repro.mpi import run_spmd
from repro.session import (
    Cluster,
    FKMergeSpec,
    HQuickSpec,
    MSSimpleSpec,
    MSSpec,
    PDMSGolombSpec,
    PDMSSpec,
    spec_class,
)
from repro.strings.checker import check_sort
from repro.strings.generators import (
    commoncrawl_like,
    dn_instance,
    dna_reads,
    random_strings,
    suffix_instance,
)
from repro.strings.lcp import lcp_array
from repro.strings.packed import PackedStringArray

from inputs import duplicate_heavy


@pytest.fixture(scope="module", params=engine_params(), autouse=True)
def spmd_engine(request):
    """Run every test of this module on each engine of the conformance axis."""
    with set_engine(request.param):
        yield request.param


SMALL_INPUTS = {
    "random": lambda: random_strings(900, 0, 18, seed=1),
    "dn25": lambda: dn_instance(700, 0.25, length=48, seed=2),
    "duplicates": lambda: duplicate_heavy(800, 25, 10, seed=3),
    "web": lambda: commoncrawl_like(600, seed=4),
}


class TestHQuick:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
    def test_sorts_on_various_pe_counts(self, p):
        data = random_strings(500, 0, 15, seed=p)
        res = Cluster(p).sort(data, HQuickSpec(), check=True)
        assert res.sorted_strings == sorted(data)

    def test_non_power_of_two_pes_leave_tail_ranks_empty(self):
        data = random_strings(600, 1, 10, seed=5)
        res = Cluster(6).sort(data, HQuickSpec(), check=True)
        # only 2^floor(log2 6) = 4 PEs hold data
        assert all(len(res.outputs_per_pe[r]) == 0 for r in (4, 5))
        assert res.sorted_strings == sorted(data)

    def test_duplicate_heavy_input(self):
        data = duplicate_heavy(700, 10, 8, seed=6)
        res = Cluster(4).sort(data, HQuickSpec(), check=True)
        assert res.sorted_strings == sorted(data)

    def test_produces_local_lcp_arrays(self):
        data = random_strings(300, 1, 12, seed=7)
        res = Cluster(4).sort(data, HQuickSpec(), check=True)
        for out, lcps in zip(res.outputs_per_pe, res.lcps_per_pe):
            assert lcps == lcp_array(out)

    def test_moves_data_multiple_times(self):
        """hQuick's communication volume is much higher than MS's (Theorem 1)."""
        data = dn_instance(800, 0.5, length=60, seed=8)
        with Cluster(8) as cluster:
            hq = cluster.sort(data, HQuickSpec())
            ms = cluster.sort(data, MSSpec())
        assert hq.report.total_bytes_sent > 1.5 * ms.report.total_bytes_sent


class TestFKmerge:
    @pytest.mark.parametrize("name", sorted(SMALL_INPUTS))
    def test_sorts(self, name):
        data = SMALL_INPUTS[name]()
        res = Cluster(4).sort(data, FKMergeSpec(), check=True)
        assert res.sorted_strings == sorted(data)

    def test_handles_repeated_strings_unlike_original(self):
        """The paper reports the original FKmerge crashes on repeated strings;
        our reimplementation must handle them (documented deviation)."""
        data = duplicate_heavy(1000, 3, 6, seed=9)
        res = Cluster(5).sort(data, FKMergeSpec(), check=True)
        assert res.sorted_strings == sorted(data)

    def test_returns_no_lcp_array(self):
        data = random_strings(200, 1, 8, seed=10)
        res = Cluster(3).sort(data, FKMergeSpec())
        assert all(h is None for h in res.lcps_per_pe)

    def test_centralised_sample_sort_structure(self):
        """FKmerge sorts its sample centrally: a gather to PE 0 followed by a
        broadcast of the splitters (the bottleneck the paper blames for its
        poor scalability)."""
        data = dn_instance(900, 0.2, length=40, seed=11)
        res = Cluster(6).sort(data, FKMergeSpec())
        kinds = [
            c.kind for c in res.report.collectives if c.phase == "splitter-determination"
        ]
        assert "gather" in kinds and "bcast" in kinds
        assert res.report.phase_bytes["splitter-determination"] > 0


class TestMS:
    @pytest.mark.parametrize("name", sorted(SMALL_INPUTS))
    @pytest.mark.parametrize("algorithm", ["ms", "ms-simple"])
    def test_sorts(self, name, algorithm):
        data = SMALL_INPUTS[name]()
        res = Cluster(4).sort(data, algorithm, check=True)
        assert res.sorted_strings == sorted(data)

    @pytest.mark.parametrize("p", [1, 2, 5, 9])
    def test_various_pe_counts(self, p):
        data = dn_instance(600, 0.4, length=40, seed=12)
        res = Cluster(p).sort(data, MSSpec(), check=True)
        assert res.sorted_strings == sorted(data)

    def test_lcp_arrays_correct_per_pe(self):
        data = commoncrawl_like(500, seed=13)
        res = Cluster(4).sort(data, MSSpec(), check=True)
        for out, lcps in zip(res.outputs_per_pe, res.lcps_per_pe):
            assert lcps == lcp_array(out)

    def test_lcp_compression_reduces_volume_vs_simple(self):
        data = dn_instance(800, 0.8, length=64, seed=14)
        with Cluster(4) as cluster:
            ms = cluster.sort(data, MSSpec())
            simple = cluster.sort(data, MSSimpleSpec())
        assert ms.report.total_bytes_sent < simple.report.total_bytes_sent

    def test_character_sampling_option(self):
        data = dn_instance(700, 0.5, length=40, seed=15)
        res = Cluster(4).sort(data, MSSpec(sampling="character"), check=True)
        assert res.sorted_strings == sorted(data)

    def test_hquick_sample_sort_option(self):
        data = random_strings(700, 1, 14, seed=16)
        res = Cluster(4).sort(data, MSSpec(sample_sort="hquick"), check=True)
        assert res.sorted_strings == sorted(data)

    def test_empty_rank_inputs(self):
        blocks = [[], random_strings(200, 1, 8, seed=18), [], [b"zz", b"aa"]]

        def prog(comm, local):
            return merge_sort(comm, local, MSSpec())

        results, _ = run_spmd(4, prog, args_per_rank=[(b,) for b in blocks])
        check_sort(blocks, results)

    def test_tiny_inputs_fewer_strings_than_pes(self):
        data = [b"b", b"a"]
        res = Cluster(6).sort(data, MSSpec(), check=True)
        assert res.sorted_strings == [b"a", b"b"]

    def test_oversampling_parameter(self):
        data = dn_instance(600, 0.3, length=40, seed=19)
        res = Cluster(4).sort(data, MSSpec(oversampling=32), check=True)
        assert res.sorted_strings == sorted(data)


class TestLocalSort:
    """Step 1 hands the later steps one representation, list input or packed."""

    BLOCKS = {
        "dn": lambda: dn_instance(300, 0.5, length=30, seed=20),
        # a NUL byte and a string past 256 bytes: the word radix kernel
        "nul": lambda: [b"x" * 300 + b"\0a", b"b\0", b"a" * 10],
        "duplicates": lambda: duplicate_heavy(400, 12, 6, seed=21),
        # every string a prefix of the one before it, some with an empty string
        "prefix_chain": lambda: [b"ab" * k for k in range(120, -1, -1)],
        # strings past the argsort's 4096-byte guard rail, parting at the end
        "long": lambda: [b"q" * 5000 + b"b", b"q" * 5000 + b"a", b"q", b"q" * 5000],
    }
    #: the blocks one cluster sort of every algorithm is run on, joined
    CLUSTER_INPUTS = {
        "dn+nul": ("dn", "nul"),
        "duplicates+long": ("duplicates", "prefix_chain", "long"),
    }

    @pytest.mark.parametrize("radix", [False, True], ids=["argsort", "word_radix"])
    @pytest.mark.parametrize("packed_input", [False, True], ids=["list", "packed"])
    @pytest.mark.parametrize("block", sorted(BLOCKS))
    def test_packed_run_and_int64_lcps(self, monkeypatch, block, packed_input, radix):
        """Either kernel, forced, sorts every block shape of a list or a
        packed input into a packed run and ``int64`` LCPs."""
        import repro.sequential.vector_sort as vs

        data = self.BLOCKS[block]()
        given = PackedStringArray.from_strings(data) if packed_input else data
        monkeypatch.setattr(vs, "_takes_radix", lambda arr: radix)

        def prog(comm):
            run, lcps = local_sort(comm, given)
            assert isinstance(run, PackedStringArray)
            assert lcps.dtype.name == "int64"
            return run.to_list(), lcps.tolist()

        results, _ = run_spmd(1, prog)
        run, lcps = results[0]
        assert run == sorted(data)
        assert lcps == lcp_array(run)

    @pytest.mark.parametrize("radix", [False, True], ids=["argsort", "word_radix"])
    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
    @pytest.mark.parametrize("inputs", sorted(CLUSTER_INPUTS))
    def test_every_algorithm_takes_either_kernel(self, monkeypatch, inputs, algorithm, radix):
        """The local sort's kernel, forced on every block, changes nothing a
        later step sees: outputs, LCPs, origins and origin wire bytes."""
        import repro.sequential.vector_sort as vs

        data = [s for block in self.CLUSTER_INPUTS[inputs] for s in self.BLOCKS[block]()]
        spec = spec_class(algorithm)()
        with Cluster(4) as cluster:
            want = cluster.sort(data, spec)
            monkeypatch.setattr(vs, "_takes_radix", lambda arr: radix)
            got = cluster.sort(data, spec, check=True)
        assert got.outputs_per_pe == want.outputs_per_pe
        assert got.lcps_per_pe == want.lcps_per_pe
        assert got.origins_per_pe == want.origins_per_pe
        assert got.report.origin_bytes_sent == want.report.origin_bytes_sent


class TestPDMS:
    @pytest.mark.parametrize("algorithm", ["pdms", "pdms-golomb"])
    @pytest.mark.parametrize("name", sorted(SMALL_INPUTS))
    def test_prefix_contract(self, name, algorithm):
        data = SMALL_INPUTS[name]()
        res = Cluster(4).sort(data, algorithm, check=True)
        assert res.num_strings == len(data)

    def test_prefix_order_matches_full_string_order(self):
        """Sorting the origins' full strings must equal a direct sort."""
        data = dna_reads(600, seed=20)
        res = Cluster(4).sort(data, PDMSSpec(), check=True)
        # reconstruct the full strings via the origin labels
        bucket_lists = _reconstruct_origin_buckets(res)
        reconstructed = []
        for pe_prefixes, pe_origins in zip(res.outputs_per_pe, res.origins_per_pe):
            for prefix, (src, pos) in zip(pe_prefixes, pe_origins):
                full = bucket_lists[src][pos]
                assert full.startswith(prefix)
                reconstructed.append(full)
        assert sorted(reconstructed) == sorted(data)
        # and the reconstructed sequence is sorted up to the transmitted prefixes
        for a, b in zip(reconstructed, reconstructed[1:]):
            assert a <= b or a.startswith(b) or b.startswith(a)

    def test_pdms_sends_fewer_bytes_when_dn_small(self):
        data = suffix_instance(text_len=1200, alphabet_size=4, max_suffix_len=300, seed=21)
        with Cluster(4) as cluster:
            pdms = cluster.sort(data, PDMSSpec())
            ms = cluster.sort(data, MSSpec())
        assert pdms.report.total_bytes_sent < 0.4 * ms.report.total_bytes_sent

    def test_golomb_variant_not_more_traffic(self):
        data = dna_reads(800, seed=22)
        with Cluster(4) as cluster:
            plain = cluster.sort(data, PDMSSpec())
            golomb = cluster.sort(data, PDMSGolombSpec())
        assert golomb.report.total_bytes_sent <= plain.report.total_bytes_sent

    def test_doubling_metadata_exposed(self):
        data = dna_reads(400, seed=23)
        res = Cluster(4).sort(data, PDMSSpec())
        assert res.extra["doubling_rounds"] >= 1
        assert res.extra["approx_dist_total"] >= len(data)

    def test_epsilon_option(self):
        data = dna_reads(400, seed=24)
        res = Cluster(4).sort(data, PDMSSpec(epsilon=0.5), check=True)
        assert res.num_strings == len(data)

    def test_character_sampling_uses_dist_weights(self):
        data = suffix_instance(text_len=700, alphabet_size=3, max_suffix_len=200, seed=25)
        res = Cluster(4).sort(data, PDMSSpec(sampling="character"), check=True)
        assert res.num_strings == len(data)

    def test_duplicate_only_input(self):
        data = [b"same-string"] * 300
        res = Cluster(4).sort(data, PDMSSpec(), check=True)
        flat = [s for part in res.outputs_per_pe for s in part]
        assert all(s == b"same-string" for s in flat)
        assert len(flat) == 300


def _reconstruct_origin_buckets(res):
    """Rebuild, per source PE, the bucket-ordered full strings PDMS referenced.

    PDMS origins are (source PE, position in the concatenation of that PE's
    outgoing buckets), which equals the position in the PE's locally sorted
    array; reproducing that order here only needs the local sort.
    """
    buckets = []
    for block in res.inputs_per_pe:
        buckets.append(sorted(block))
    return buckets
