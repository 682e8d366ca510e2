"""Cluster sessions and the input distribution they sort.

Sorting, machine reuse, the run configuration, the engine seam and the
registry.
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
    AlgorithmRegistry,
    Cluster,
    HQuickSpec,
    MSSpec,
    PDMSGolombSpec,
    default_registry,
    register_algorithm,
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

    def test_single_pe_every_registered_algorithm(self):
        data = random_strings(150, 0, 10, seed=4)
        with Cluster(num_pes=1) as cluster:
            for name in default_registry().names():
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
        cluster = Cluster(num_pes=2)

        reg = default_registry().copy()

        def exploding(comm, local, spec):
            raise RuntimeError("boom")

        @dataclass(frozen=True)
        class BoomSpec(MSSpec):
            algorithm = "boom"

        reg.register("boom", exploding, BoomSpec)
        bad = Cluster(num_pes=2, registry=reg)
        with pytest.raises(SpmdError):
            bad.sort([b"a", b"b"], "boom")
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
        monkeypatch.setenv("REPRO_WIRE_CHECKSUMS", "1")
        cluster = Cluster(num_pes=2, exchange_topology="grid")
        assert cluster.config == RunConfig.from_env().override(exchange_topology="grid")
        assert cluster.config.wire_checksums
        assert cluster.config.exchange_topology == "grid"
        assert cluster.engine.config is cluster.config
        data = random_strings(60, 1, 6, seed=7)
        assert cluster.sort(data, MSSpec(), check=True).sorted_strings == sorted(data)

    def test_every_rank_sees_the_clusters_config(self):
        cluster = Cluster(num_pes=3, exchange_topology="grid", wire_checksums=True)
        results, _ = cluster.engine.run(lambda comm: comm.config)
        assert results == [cluster.config] * 3

    def test_invalid_keyword_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="REPRO_EXCHANGE_TOPOLOGY"):
            Cluster(num_pes=2, exchange_topology="torus")
        with pytest.raises(ValueError, match="positive"):
            Cluster(num_pes=2, timeout=0)


def _paused_ms(first: threading.Event, then: threading.Event):
    """An ``ms`` runner that sets ``first``, then sorts once ``then`` is set."""
    ms = default_registry().get("ms").runner

    def runner(comm, local, spec):
        first.set()
        assert then.wait(30), "the other cluster never reached its cue"
        return ms(comm, local, spec)

    return runner


@pytest.mark.parametrize(
    "setting, mine, theirs",
    [
        ("wire_checksums", True, False),
        ("exchange_topology", "hypercube", "direct"),
    ],
)
def test_concurrent_clusters_keep_their_own_settings(setting, mine, theirs):
    """Regression: cluster A exchanges while cluster B's run is in flight.

    The settings once lived in process globals that each sort flipped for
    its duration, so B starting its run switched A's exchange to B's value
    (unsealed, A sent 1249 B here instead of its own sealed 1257 B).
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
    reg_a, reg_b = default_registry().copy(), default_registry().copy()
    reg_a.register("ms", _paused_ms(a_started, b_in_flight), MSSpec, overwrite=True)
    reg_b.register("ms", _paused_ms(b_in_flight, a_done), MSSpec, overwrite=True)
    a = Cluster(2, engine="threads", registry=reg_a, **{setting: mine})
    b = Cluster(2, engine="threads", registry=reg_b, **{setting: theirs})
    results = {}

    def sort(name, cluster):
        try:
            results[name] = cluster.sort(data, "ms")
        finally:
            if name == "a":
                a_done.set()

    thread_a = threading.Thread(target=sort, args=("a", a))
    thread_a.start()
    assert a_started.wait(30)
    thread_b = threading.Thread(target=sort, args=("b", b))
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


class TestRegistryExtension:
    def test_register_and_sort_custom_algorithm(self):
        @dataclass(frozen=True)
        class VerifiedMSSpec(MSSpec):
            algorithm = "ms-verified"

        def runner(comm, local, spec):
            output = merge_sort(comm, local, spec)
            output.extra["custom"] = True
            return output

        reg = default_registry().copy()
        reg.register("ms-verified", runner, VerifiedMSSpec)
        assert "ms-verified" in reg and "ms-verified" not in default_registry()

        data = random_strings(150, 1, 10, seed=9)
        cluster = Cluster(num_pes=3, registry=reg)
        res = cluster.sort(data, VerifiedMSSpec(), check=True)
        assert res.algorithm == "ms-verified"
        assert res.extra["custom"] is True
        assert res.sorted_strings == sorted(data)

    @pytest.mark.parametrize("engine", ["threads", "processes"])
    def test_list_and_packed_runners_give_equal_results(self, engine):
        """A runner may hand ``RankOutput`` lists (the registry example's
        shape before rank programs returned packed runs) or the packed run
        ``merge_sort`` returns: both give the same result."""

        @dataclass(frozen=True)
        class ListMSSpec(MSSpec):
            algorithm = "ms-lists"

        @dataclass(frozen=True)
        class PackedMSSpec(MSSpec):
            algorithm = "ms-packed"

        def list_runner(comm, local, spec):
            out = merge_sort(comm, local, spec)
            return RankOutput(
                out.strings.to_list(), out.lcps.tolist(), extra={"stamped": True}
            )

        def packed_runner(comm, local, spec):
            out = merge_sort(comm, local, spec)
            return RankOutput(out.strings, out.lcps, extra={"stamped": True})

        reg = default_registry().copy()
        reg.register("ms-lists", list_runner, ListMSSpec)
        reg.register("ms-packed", packed_runner, PackedMSSpec)
        data = dn_instance(300, 0.5, length=20, seed=12)
        with Cluster(num_pes=3, engine=engine, registry=reg) as cluster:
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

    def test_register_refuses_silent_shadowing(self):
        reg = default_registry().copy()
        with pytest.raises(ValueError, match="already registered"):
            reg.register("ms", lambda c, l, s: None, MSSpec)
        reg.register("ms", lambda c, l, s: None, MSSpec, overwrite=True)

    def test_register_validates_inputs(self):
        reg = AlgorithmRegistry()
        with pytest.raises(TypeError, match="callable"):
            reg.register("x", "not-callable", MSSpec)
        with pytest.raises(TypeError, match="SortSpec"):
            reg.register("x", lambda c, l, s: None, dict)

    def test_register_algorithm_scoped_registry_helper(self):
        reg = AlgorithmRegistry()
        entry = register_algorithm(
            "only-here", lambda c, l, s: RankOutput([]), HQuickSpec, registry=reg
        )
        assert entry.name == "only-here"
        assert "only-here" in reg
        assert "only-here" not in default_registry()


class TestExtrasAggregation:
    def test_auto_reports_agreed_choice(self):
        data = dn_instance(num_strings=300, dn=0.3, length=40, seed=10)
        res = Cluster(num_pes=4).sort(data, "auto", check=True)
        assert res.extra["chosen_algorithm"] in ("ms", "pdms-golomb")
        assert "estimated_dn" in res.extra

    def test_disagreeing_extras_raise(self):
        @dataclass(frozen=True)
        class RankStampSpec(MSSpec):
            algorithm = "rank-stamp"

        def runner(comm, local, spec):
            return RankOutput(sorted(local), extra={"stamp": comm.rank})

        reg = default_registry().copy()
        reg.register("rank-stamp", runner, RankStampSpec)
        with pytest.raises(SpmdError, match="disagree"):
            Cluster(num_pes=2, registry=reg).sort(
                [b"a", b"b"], RankStampSpec()
            )

    def test_auto_aggregates_on_a_high_dn_input(self):
        data = dn_instance(num_strings=200, dn=0.9, length=30, seed=11)
        res = Cluster(num_pes=3).sort(data, "auto")
        assert res.extra["chosen_algorithm"] in ("ms", "pdms-golomb")


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
