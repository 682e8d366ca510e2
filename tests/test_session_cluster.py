"""Cluster sessions and the input distribution they sort.

Sorting, machine reuse, the run configuration, the engine seam and
custom algorithms: spec subclasses that override ``run``.
"""

import threading
from dataclasses import dataclass

import numpy as np
import pytest

from repro.config import RunConfig
from repro.dist.api import RankOutput, distribute_strings, merge_sort
from repro.mpi.engine import (
    ENGINES,
    SpmdError,
    ThreadEngine,
    get_engine,
    register_engine,
)
from repro.session import (
    SPECS,
    Cluster,
    HQuickSpec,
    MSSpec,
    PDMSGolombSpec,
    SampledSpec,
    SortSpec,
    spec_class,
)
from repro.strings.generators import dn_instance, random_strings
from repro.strings.packed import PackedStringArray


class TestClusterSort:
    def test_sort_with_default_spec(self):
        data = random_strings(200, 1, 12, seed=1)
        res = Cluster(num_pes=4).sort(data, check=True)
        assert res.algorithm == "ms"
        assert res.sorted_strings == sorted(data)

    def test_algorithm_name_means_default_spec(self):
        data = random_strings(120, 1, 8, seed=2)
        by_name = Cluster(num_pes=3).sort(data, "pdms-golomb", check=True)
        by_spec = Cluster(num_pes=3).sort(data, PDMSGolombSpec(), check=True)
        assert by_name.outputs_per_pe == by_spec.outputs_per_pe
        assert by_name.report.total_bytes_sent == by_spec.report.total_bytes_sent

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            Cluster(num_pes=2).sort([b"a"], "bogosort")

    def test_pre_distributed_block_count_must_match(self):
        with pytest.raises(ValueError, match="2 blocks"):
            Cluster(num_pes=4).sort([[b"a"], [b"b"]], pre_distributed=True)

    def test_pre_distributed_input(self):
        blocks = [[b"d", b"a"], [b"c", b"b"]]
        res = Cluster(num_pes=2).sort(blocks, MSSpec(), pre_distributed=True, check=True)
        assert res.num_pes == 2
        assert res.sorted_strings == [b"a", b"b", b"c", b"d"]

    def test_accepts_str_input(self):
        res = Cluster(num_pes=2).sort(["pear", "apple", "fig"], MSSpec(), check=True)
        assert res.sorted_strings == [b"apple", b"fig", b"pear"]

    def test_mixed_input_types_convert_element_by_element(self):
        class Tagged(bytes):
            pass

        tagged = Tagged(b"m")
        data = [b"z", b"y", "xé", bytearray(b"w"), tagged, b"v"]
        expected = [[b"z", b"y", "xé".encode()], [b"w", b"m", b"v"]]
        res = Cluster(num_pes=2).sort(data, MSSpec(), check=True)
        assert res.inputs_per_pe == expected
        assert [type(s) for s in res.inputs_per_pe[1]] == [bytes, Tagged, bytes]
        assert res.inputs_per_pe[1][1] is tagged  # a bytes subclass is kept as is
        assert res.sorted_strings == sorted(s for b in expected for s in b)
        blocks = [data[:3], data[3:]]
        res = Cluster(num_pes=2).sort(blocks, MSSpec(), pre_distributed=True)
        assert res.inputs_per_pe == expected

    def test_non_string_after_many_bytes_raises(self):
        data = [b"a"] * 1000 + [7]
        with pytest.raises(TypeError, match=r"^strings must be bytes or str, got 'int'$"):
            Cluster(num_pes=2).sort(data, MSSpec())
        with pytest.raises(TypeError, match=r"^strings must be bytes or str, got 'int'$"):
            Cluster(num_pes=2).sort([data[:500], data[500:]], MSSpec(), pre_distributed=True)

    def test_result_metadata(self):
        data = random_strings(300, 1, 10, seed=3)
        res = Cluster(num_pes=4).sort(data, MSSpec())
        assert res.algorithm == "ms"
        assert res.num_pes == 4
        assert res.num_strings == 300
        assert res.num_chars == sum(len(s) for s in data)
        assert res.bytes_per_string() > 0
        assert res.modeled_time() > 0
        assert "splitter-determination" in res.report.phase_bytes
        assert "exchange" in res.report.phase_bytes

    def test_more_pes_than_strings(self):
        res = Cluster(num_pes=8).sort([b"b", b"a", b"c"], MSSpec(), check=True)
        assert res.sorted_strings == [b"a", b"b", b"c"]

    def test_single_pe_every_algorithm(self):
        data = random_strings(150, 0, 10, seed=4)
        with Cluster(num_pes=1) as cluster:
            for name in sorted(SPECS):
                res = cluster.sort(data, name, check=True)
                assert res.num_strings == 150

    def test_empty_input(self):
        res = Cluster(num_pes=3).sort([], MSSpec(), check=True)
        assert res.sorted_strings == []

    def test_seed_changes_hquick_randomisation_not_result(self):
        data = random_strings(300, 1, 10, seed=7)
        with Cluster(num_pes=4) as cluster:
            a = cluster.sort(data, HQuickSpec(seed=1))
            b = cluster.sort(data, HQuickSpec(seed=2))
        assert a.sorted_strings == b.sorted_strings == sorted(data)

    def test_distribute_by_chars_balances_character_mass(self):
        data = [b"x" * 60] * 3 + [b"y"] * 200
        res = Cluster(num_pes=4).sort(
            data, MSSpec(distribute_by="chars"), check=True
        )
        sizes = [sum(len(s) for s in b) for b in res.inputs_per_pe]
        assert max(sizes) < 0.6 * sum(sizes)
        assert res.sorted_strings == sorted(data)

    def test_invalid_num_pes(self):
        with pytest.raises(ValueError):
            Cluster(num_pes=0)


class TestMachineReuse:
    def test_engine_state_is_reused_across_sorts(self):
        data = random_strings(150, 1, 10, seed=3)
        cluster = Cluster(num_pes=4)
        first = cluster.sort(data, MSSpec())
        second = cluster.sort(data, MSSpec())
        assert cluster.engine.runs_completed == 2
        assert cluster.engine.state_reuses >= 1
        # reports are per-run: reuse must not leak bytes between sorts
        assert first.report.total_bytes_sent == second.report.total_bytes_sent

    def test_reuse_across_different_algorithms(self):
        data = random_strings(100, 1, 8, seed=4)
        cluster = Cluster(num_pes=3)
        for name in ("ms", "hquick", "pdms", "fkmerge"):
            cluster.sort(data, name, check=True)
        assert cluster.engine.state_reuses >= 3

    def test_failed_run_rebuilds_the_machine(self):
        @dataclass(frozen=True)
        class BoomSpec(MSSpec):
            algorithm = "boom"

            def run(self, comm, local):
                raise RuntimeError("boom")

        bad = Cluster(num_pes=2)
        with pytest.raises(SpmdError):
            bad.sort([b"a", b"b"], BoomSpec())
        # the poisoned state must not be reused
        ok = bad.sort([b"b", b"a"], "ms", check=True)
        assert ok.sorted_strings == [b"a", b"b"]


class TestConcurrentSorts:
    def test_concurrent_sorts_on_one_cluster_serialise_safely(self):
        data = random_strings(200, 1, 10, seed=20)
        cluster = Cluster(num_pes=3)
        results = [None, None]
        errors = []

        def work(slot):
            try:
                results[slot] = cluster.sort(data, MSSpec(), check=True)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert results[0].sorted_strings == results[1].sorted_strings == sorted(data)
        assert (
            results[0].report.total_bytes_sent
            == results[1].report.total_bytes_sent
        )


class TestMachineModel:
    def test_cluster_machine_drives_modeled_time(self):
        from repro.net.cost_model import MachineModel

        data = random_strings(150, 1, 10, seed=21)
        slow = Cluster(num_pes=2, machine=MachineModel(alpha=1.0, beta=1.0))
        fast = Cluster(num_pes=2, machine=MachineModel(alpha=1e-9, beta=1e-12))
        slow_res = slow.sort(data, MSSpec())
        fast_res = fast.sort(data, MSSpec())
        # no explicit model passed: the cluster's own model must apply
        assert slow_res.modeled_time() > fast_res.modeled_time()
        # an explicit argument still overrides
        assert slow_res.modeled_time(fast.machine) == pytest.approx(
            fast_res.modeled_time()
        )


class TestRunConfig:
    def test_none_inherits_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        cluster = Cluster(num_pes=2, exchange_topology="hypercube")
        assert cluster.config == RunConfig.from_env().override(
            exchange_topology="hypercube"
        )
        assert cluster.config.trace
        assert cluster.config.exchange_topology == "hypercube"
        assert cluster.engine.config is cluster.config
        data = random_strings(60, 1, 6, seed=7)
        assert cluster.sort(data, MSSpec(), check=True).sorted_strings == sorted(data)

    def test_every_rank_sees_the_clusters_config(self):
        cluster = Cluster(num_pes=3, exchange_topology="hypercube", timeout=7.0)
        results, _ = cluster.engine.run(lambda comm: comm.config)
        assert results == [cluster.config] * 3

    @pytest.mark.parametrize("topology", ["torus", "grid"])
    def test_invalid_keyword_is_rejected_at_construction(self, topology):
        with pytest.raises(ValueError, match="REPRO_EXCHANGE_TOPOLOGY") as raised:
            Cluster(num_pes=2, exchange_topology=topology)
        assert "['direct', 'hypercube']" in str(raised.value)
        with pytest.raises(ValueError, match="positive"):
            Cluster(num_pes=2, timeout=0)


def _paused_ms(first: threading.Event, then: threading.Event) -> MSSpec:
    """An ``ms`` spec that sets ``first``, then sorts once ``then`` is set."""

    @dataclass(frozen=True)
    class PausedMSSpec(MSSpec):
        def run(self, comm, local):
            first.set()
            assert then.wait(30), "the other cluster never reached its cue"
            return super().run(comm, local)

    return PausedMSSpec()


@pytest.mark.parametrize(
    "setting, mine, theirs", [("exchange_topology", "hypercube", "direct")]
)
def test_concurrent_clusters_keep_their_own_settings(setting, mine, theirs):
    """Regression: cluster A exchanges while cluster B's run is in flight.

    The settings once lived in process globals that each sort flipped for
    its duration, so B starting its run switched A's exchange to B's value.
    """
    data = random_strings(400, 1, 8, seed=31)

    def fingerprint(result):
        return result.report.total_bytes_sent

    alone = {
        value: fingerprint(
            Cluster(2, engine="threads", **{setting: value}).sort(data, "ms")
        )
        for value in (mine, theirs)
    }
    assert alone[mine] != alone[theirs]

    a_started, b_in_flight = threading.Event(), threading.Event()
    a_done = threading.Event()
    spec_a = _paused_ms(a_started, b_in_flight)
    spec_b = _paused_ms(b_in_flight, a_done)
    a = Cluster(2, engine="threads", **{setting: mine})
    b = Cluster(2, engine="threads", **{setting: theirs})
    results = {}

    def sort(name, cluster, spec):
        try:
            results[name] = cluster.sort(data, spec)
        finally:
            if name == "a":
                a_done.set()

    thread_a = threading.Thread(target=sort, args=("a", a, spec_a))
    thread_a.start()
    assert a_started.wait(30)
    thread_b = threading.Thread(target=sort, args=("b", b, spec_b))
    thread_b.start()
    thread_a.join(60)
    thread_b.join(60)
    assert not thread_a.is_alive() and not thread_b.is_alive()
    assert fingerprint(results["a"]) == alone[mine]
    assert fingerprint(results["b"]) == alone[theirs]


class TestEngineSeam:
    def test_get_engine_threads(self):
        assert get_engine("threads") is ThreadEngine

    def test_unknown_engine_lists_available(self):
        with pytest.raises(ValueError, match="threads"):
            get_engine("mpi")
        with pytest.raises(ValueError, match="REPRO_ENGINE.*mpi4py"):
            Cluster(num_pes=2, engine="mpi4py")

    def test_registered_engine_is_selectable(self):
        calls = []

        class CountingEngine(ThreadEngine):
            name = "counting"

            def run(self, *args, **kwargs):
                calls.append(1)
                return super().run(*args, **kwargs)

        register_engine("counting", CountingEngine)
        try:
            cluster = Cluster(num_pes=2, engine="counting")
            data = random_strings(40, 1, 6, seed=8)
            res = cluster.sort(data, MSSpec(), check=True)
            assert res.sorted_strings == sorted(data)
            assert calls == [1]
        finally:
            ENGINES.pop("counting", None)


@dataclass(frozen=True)
class NoRunSpec(SortSpec):
    """A spec class that names an algorithm but has no rank program."""

    algorithm = "no-run"


class TestCustomAlgorithms:
    def test_a_subclass_that_overrides_run_sorts(self):
        @dataclass(frozen=True)
        class VerifiedMSSpec(MSSpec):
            algorithm = "ms-verified"

            def run(self, comm, local):
                output = merge_sort(comm, local, self)
                output.extra["custom"] = True
                return output

        # no process-global table learns the subclass
        assert "ms-verified" not in SPECS

        data = random_strings(150, 1, 10, seed=9)
        cluster = Cluster(num_pes=3)
        res = cluster.sort(data, VerifiedMSSpec(), check=True)
        assert res.algorithm == "ms-verified"
        assert res.extra["custom"] is True
        assert res.sorted_strings == sorted(data)

    @pytest.mark.parametrize("engine", ["threads", "processes"])
    def test_list_and_packed_runs_give_equal_results(self, engine):
        """A ``run`` may hand ``RankOutput`` lists (the custom-algorithm
        shape before rank programs returned packed runs) or the packed run
        ``merge_sort`` returns: both give the same result."""

        @dataclass(frozen=True)
        class ListMSSpec(MSSpec):
            algorithm = "ms-lists"

            def run(self, comm, local):
                out = merge_sort(comm, local, self)
                return RankOutput(
                    out.strings.to_list(), out.lcps.tolist(), extra={"stamped": True}
                )

        @dataclass(frozen=True)
        class PackedMSSpec(MSSpec):
            algorithm = "ms-packed"

            def run(self, comm, local):
                out = merge_sort(comm, local, self)
                return RankOutput(out.strings, out.lcps, extra={"stamped": True})

        data = dn_instance(300, 0.5, length=20, seed=12)
        with Cluster(num_pes=3, engine=engine) as cluster:
            listed = cluster.sort(data, ListMSSpec(), check=True)
            packed = cluster.sort(data, PackedMSSpec(), check=True)
        for res in (listed, packed):
            assert all(isinstance(r.strings, PackedStringArray) for r in res.rank_outputs)
            assert all(r.lcps.dtype == np.int64 for r in res.rank_outputs)
        assert packed.outputs_per_pe == listed.outputs_per_pe
        assert packed.lcps_per_pe == listed.lcps_per_pe
        assert packed.origins_per_pe is listed.origins_per_pe is None
        assert packed.sorted_strings == listed.sorted_strings == sorted(data)
        assert packed.inputs_per_pe == listed.inputs_per_pe
        assert (packed.num_strings, packed.num_chars) == (listed.num_strings, listed.num_chars)
        assert packed.extra == listed.extra == {"stamped": True}
        assert packed.report.total_bytes_sent == listed.report.total_bytes_sent

    def test_a_subclass_never_shadows_a_built_in_name(self):
        @dataclass(frozen=True)
        class OtherMSSpec(MSSpec):
            def run(self, comm, local):
                raise AssertionError("a subclass must not replace 'ms'")

        assert OtherMSSpec.algorithm == "ms"
        assert spec_class("ms") is MSSpec
        data = random_strings(60, 1, 6, seed=13)
        assert Cluster(num_pes=2).sort(data, "ms", check=True).sorted_strings == sorted(data)

    @pytest.mark.parametrize(
        "spec, error",
        [
            (SortSpec(), "overrides SortSpec.run"),
            (NoRunSpec(), "overrides SortSpec.run"),
            (SampledSpec(), "names its algorithm"),
            ({"algorithm": "ms"}, "must be a SortSpec"),
        ],
        ids=["base", "no-run", "unnamed", "dict"],
    )
    def test_a_spec_without_a_rank_program_fails_before_any_rank_starts(
        self, spec, error
    ):
        cluster = Cluster(num_pes=2)
        cluster.sort([b"b", b"a"], MSSpec())
        with pytest.raises(TypeError, match=error):
            cluster.sort([b"b", b"a"], spec)
        assert cluster.engine.runs_completed == 1

    def test_a_custom_algorithm_stays_scoped_to_its_class(self):
        @dataclass(frozen=True)
        class OnlyHereSpec(HQuickSpec):
            algorithm = "only-here"

            def run(self, comm, local):
                return RankOutput([])

        res = Cluster(num_pes=2).sort([], OnlyHereSpec())
        assert res.algorithm == "only-here"
        assert OnlyHereSpec.from_dict(OnlyHereSpec().to_dict()) == OnlyHereSpec()
        assert "only-here" not in SPECS
        with pytest.raises(ValueError, match="unknown algorithm 'only-here'"):
            SortSpec.from_dict({"algorithm": "only-here"})


class TestExtrasAggregation:
    def test_disagreeing_extras_raise(self):
        @dataclass(frozen=True)
        class RankStampSpec(MSSpec):
            algorithm = "rank-stamp"

            def run(self, comm, local):
                return RankOutput(sorted(local), extra={"stamp": comm.rank})

        with pytest.raises(SpmdError, match="disagree"):
            Cluster(num_pes=2).sort([b"a", b"b"], RankStampSpec())


@dataclass(frozen=True)
class ForgetfulSpec(MSSpec):
    """Rank 2's ``run`` forgets its ``return``."""

    algorithm = "forgetful"

    def run(self, comm, local):
        output = super().run(comm, local)
        if comm.rank != 2:
            return output


class TestRunMustReturnARankOutput:
    MESSAGE = "ForgetfulSpec.run returned NoneType on rank 2, not a RankOutput"

    def test_sort_names_the_spec_and_the_rank(self):
        data = dn_instance(num_strings=80, dn=0.5, length=20, seed=12)
        with pytest.raises(TypeError, match=self.MESSAGE):
            Cluster(num_pes=4).sort(data, ForgetfulSpec())

    def test_sort_batches_names_the_spec_and_the_rank(self):
        batches = [dn_instance(num_strings=80, dn=0.5, length=20, seed=13)]
        stream = Cluster(num_pes=4).sort_batches(batches, ForgetfulSpec())
        with pytest.raises(TypeError, match=self.MESSAGE):
            next(stream)


class TestDistributeStrings:
    def test_by_strings_balances_counts(self):
        data = random_strings(100, 1, 5, seed=1)
        blocks = distribute_strings(data, 7)
        assert len(blocks) == 7
        assert sum(len(b) for b in blocks) == 100
        assert max(len(b) for b in blocks) - min(len(b) for b in blocks) <= 1

    def test_by_chars_balances_characters(self):
        data = [b"x" * 50] * 4 + [b"y"] * 200
        blocks = distribute_strings(data, 4, by="chars")
        sizes = [sum(len(s) for s in b) for b in blocks]
        assert sum(sizes) == sum(len(s) for s in data)
        assert max(sizes) < 0.6 * sum(sizes)

    def test_preserves_order_and_content(self):
        data = random_strings(53, 1, 6, seed=2)
        blocks = distribute_strings(data, 5)
        assert [s for b in blocks for s in b] == data

    def test_accepts_str_input(self):
        blocks = distribute_strings(["b", "a"], 2)
        assert blocks == [[b"b"], [b"a"]]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            distribute_strings([b"a"], 0)
        with pytest.raises(ValueError):
            distribute_strings([b"a"], 2, by="magic")
