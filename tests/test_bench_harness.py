"""Tests for the benchmark harness and the canned experiment definitions."""

import json

from repro.bench.experiments import (
    ablation_lcp_golomb,
    skewed_sampling_experiment,
    strong_scaling_corpus,
    suffix_instance_experiment,
    weak_scaling_dn,
)
from repro.bench.harness import CellResult, ExperimentResult, ExperimentRunner, format_table
from repro.net.cost_model import MachineModel
from repro.strings.generators import random_strings


class TestFormatTable:
    def test_alignment_and_content(self):
        table = format_table(["a", "bbb"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bbb" in lines[0]
        assert "333" in lines[3]


class TestExperimentRunner:
    def test_run_cell_produces_metrics(self):
        runner = ExperimentRunner(check=True)
        data = random_strings(300, 1, 10, seed=1)
        blocks = [data[:150], data[150:]]
        cell = runner.run_cell("unit", "ms", 2, "random", blocks)
        assert cell.algorithm == "ms"
        assert cell.num_strings == 300
        assert cell.bytes_per_string > 0
        assert cell.modeled_time >= cell.modeled_comm_time
        assert cell.wall_time > 0
        assert cell.imbalance >= 1.0

    def test_sweep_covers_grid(self):
        runner = ExperimentRunner()

        def factory(p, seed):
            data = random_strings(40 * p, 1, 8, seed=seed)
            return [data[r * 40 : (r + 1) * 40] for r in range(p)]

        res = runner.sweep(
            "unit-sweep", "desc", ["ms", "hquick"], [2, 3], factory, input_name="rand"
        )
        assert len(res.cells) == 4
        assert res.algorithms() == ["ms", "hquick"]
        assert sorted({c.num_pes for c in res.cells}) == [2, 3]

    def test_custom_machine_model_changes_modeled_time(self):
        data = random_strings(200, 1, 10, seed=2)
        blocks = [data[:100], data[100:]]
        slow = ExperimentRunner(machine=MachineModel(alpha=1.0, beta=1.0))
        fast = ExperimentRunner(machine=MachineModel(alpha=1e-9, beta=1e-12))
        slow_cell = slow.run_cell("m", "ms", 2, "r", blocks)
        fast_cell = fast.run_cell("m", "ms", 2, "r", blocks)
        assert slow_cell.modeled_time > fast_cell.modeled_time


class TestSpecDrivenSweeps:
    def test_run_cell_accepts_a_spec_and_keys_by_config_hash(self):
        from repro.session import MSSpec

        runner = ExperimentRunner()
        data = random_strings(200, 1, 10, seed=11)
        blocks = [data[:100], data[100:]]
        spec = MSSpec(sampling="character")
        cell = runner.run_cell("unit", spec, 2, "rand", blocks)
        assert cell.algorithm == "ms"
        assert cell.config_hash == spec.config_hash()
        assert cell.extra["spec"] == spec.to_dict()
        assert cell.as_dict()["config_hash"] == spec.config_hash()

    def test_sweep_over_spec_list(self):
        from repro.session import MSSpec, PDMSSpec

        runner = ExperimentRunner()

        def factory(p, seed):
            data = random_strings(40 * p, 1, 8, seed=seed)
            return [data[r * 40 : (r + 1) * 40] for r in range(p)]

        specs = [MSSpec(), MSSpec(sampling="character"), PDMSSpec(epsilon=0.5)]
        res = runner.sweep("unit-specs", "d", specs, [2], factory)
        assert len(res.cells) == 3
        hashes = [c.config_hash for c in res.cells]
        assert len(set(hashes)) == 3
        for spec, h in zip(specs, hashes):
            assert res.filter(config_hash=h)[0].extra["spec"] == spec.to_dict()

    def test_runner_reuses_clusters_per_pe_count(self):
        runner = ExperimentRunner()
        data = random_strings(120, 1, 8, seed=12)
        blocks = [data[:60], data[60:]]
        runner.run_cell("unit", "ms", 2, "rand", blocks)
        runner.run_cell("unit", "pdms", 2, "rand", blocks)
        assert runner.cluster_for(2).engine.state_reuses >= 1

    def test_name_cells_run_the_default_spec_with_the_runner_seed(self):
        from repro.session import MSSpec

        runner = ExperimentRunner(seed=5)
        data = random_strings(100, 1, 8, seed=13)
        cell = runner.run_cell("unit", "ms", 2, "rand", [data[:50], data[50:]])
        assert cell.config_hash == MSSpec(seed=5).config_hash()


class TestCheckpointedCells:
    """Checkpoint/resume: cells persist as JSON keyed by config_hash."""

    def _factory(self, p, seed):
        data = random_strings(40 * p, 1, 8, seed=seed)
        return [data[r * 40 : (r + 1) * 40] for r in range(p)]

    def test_cell_round_trips_through_from_dict(self):
        runner = ExperimentRunner()
        data = random_strings(120, 1, 8, seed=21)
        cell = runner.run_cell("unit", "ms", 2, "rand", [data[:60], data[60:]])
        clone = CellResult.from_dict(json.loads(json.dumps(cell.as_dict())))
        assert clone == cell
        # unknown keys from future formats are ignored, not fatal
        extended = dict(cell.as_dict(), future_field=123)
        assert CellResult.from_dict(extended) == cell

    def test_run_cell_resume_skips_recomputation(self, tmp_path, monkeypatch):
        from repro.session import Cluster, MSSpec

        runner = ExperimentRunner(cache_dir=tmp_path)
        data = random_strings(160, 1, 8, seed=22)
        blocks = [data[:80], data[80:]]
        first = runner.run_cell("unit", MSSpec(), 2, "rand", blocks)
        assert list(tmp_path.glob("*.json")), "cell checkpoint not written"

        def boom(*args, **kwargs):  # resumed cells must never sort again
            raise AssertionError("resume recomputed a cached cell")

        monkeypatch.setattr(Cluster, "sort", boom)
        resumed = ExperimentRunner(cache_dir=tmp_path)
        cell = resumed.run_cell("unit", MSSpec(), 2, "rand", blocks, resume=True)
        assert cell == first
        assert resumed.cells_resumed == 1

    def test_resume_keys_on_config_hash_pe_and_input(self, tmp_path):
        from repro.session import MSSpec

        runner = ExperimentRunner(cache_dir=tmp_path)
        data = random_strings(160, 1, 8, seed=23)
        blocks = [data[:80], data[80:]]
        runner.run_cell("unit", MSSpec(), 2, "rand", blocks)
        # a different spec, PE count or input name misses the cache
        assert runner.run_cell(
            "unit", MSSpec(sampling="character"), 2, "rand", blocks, resume=True
        ).config_hash != MSSpec().config_hash()
        runner.run_cell("unit", MSSpec(), 2, "other", blocks, resume=True)
        assert runner.cells_resumed == 0

    def test_sweep_resume_is_incremental(self, tmp_path):
        from repro.session import MSSpec, PDMSSpec

        runner = ExperimentRunner(cache_dir=tmp_path)
        specs = [MSSpec(), PDMSSpec(epsilon=0.5)]
        first = runner.sweep("sweep", "d", specs, [2, 3], self._factory)
        assert runner.cells_resumed == 0

        resumed = ExperimentRunner(cache_dir=tmp_path)
        second = resumed.sweep(
            "sweep", "d", specs, [2, 3], self._factory, resume=True
        )
        assert resumed.cells_resumed == len(first.cells) == 4
        assert [c.as_dict() for c in second.cells] == [
            c.as_dict() for c in first.cells
        ]
        # growing the sweep only pays for the new cells
        grown = ExperimentRunner(cache_dir=tmp_path)
        res = grown.sweep(
            "sweep", "d", specs + ["hquick"], [2, 3], self._factory, resume=True
        )
        assert grown.cells_resumed == 4
        assert len(res.cells) == 6

    def test_resume_keys_on_runner_context(self, tmp_path):
        """Regression: a different input-generation seed (or machine model)
        must miss the cache — the runner seed shapes the input but is not
        part of the spec's config_hash."""
        from repro.session import MSSpec

        first = ExperimentRunner(cache_dir=tmp_path, seed=0)
        a = first.sweep("demo", "d", [MSSpec()], [2], self._factory)

        other_seed = ExperimentRunner(cache_dir=tmp_path, seed=999)
        b = other_seed.sweep("demo", "d", [MSSpec()], [2], self._factory, resume=True)
        assert other_seed.cells_resumed == 0
        assert b.cells[0].total_bytes_sent != a.cells[0].total_bytes_sent or (
            b.cells[0].extra != a.cells[0].extra
        )

        slow = ExperimentRunner(
            cache_dir=tmp_path, seed=0, machine=MachineModel(alpha=1.0, beta=1.0)
        )
        slow.sweep("demo", "d", [MSSpec()], [2], self._factory, resume=True)
        assert slow.cells_resumed == 0
        # the original context still resumes
        again = ExperimentRunner(cache_dir=tmp_path, seed=0)
        again.sweep("demo", "d", [MSSpec()], [2], self._factory, resume=True)
        assert again.cells_resumed == 1

    def test_resume_keys_on_effective_execution_toggles(self, tmp_path, monkeypatch):
        """Regression: cells measured under an inherited routed topology (or
        any other run-config setting) must not resume as direct-delivery
        data."""
        from repro.session import MSSpec

        monkeypatch.setenv("REPRO_EXCHANGE_TOPOLOGY", "hypercube")
        routed = ExperimentRunner(cache_dir=tmp_path)
        res = routed.sweep("demo", "d", [MSSpec()], [2], self._factory)
        assert res.cells[0].extra["forwarded_bytes"] > 0

        monkeypatch.delenv("REPRO_EXCHANGE_TOPOLOGY")
        direct = ExperimentRunner(cache_dir=tmp_path)
        res2 = direct.sweep("demo", "d", [MSSpec()], [2], self._factory, resume=True)
        assert direct.cells_resumed == 0
        assert "forwarded_bytes" not in res2.cells[0].extra

        # under the same setting the routed cell resumes
        monkeypatch.setenv("REPRO_EXCHANGE_TOPOLOGY", "hypercube")
        again = ExperimentRunner(cache_dir=tmp_path)
        again.sweep("demo", "d", [MSSpec()], [2], self._factory, resume=True)
        assert again.cells_resumed == 1

    def test_resume_keys_on_wire_checksums(self, tmp_path, monkeypatch):
        """Regression: a cell measured with sealed blocks (4 more wire bytes
        per block) must not be served to an unsealed run."""
        from repro.session import MSSpec

        monkeypatch.setenv("REPRO_WIRE_CHECKSUMS", "1")
        sealed = ExperimentRunner(cache_dir=tmp_path)
        (cell,) = sealed.sweep("demo", "d", [MSSpec()], [2], self._factory).cells

        monkeypatch.delenv("REPRO_WIRE_CHECKSUMS")
        plain = ExperimentRunner(cache_dir=tmp_path)
        (fresh,) = plain.sweep(
            "demo", "d", [MSSpec()], [2], self._factory, resume=True
        ).cells
        assert plain.cells_resumed == 0
        assert fresh.total_bytes_sent < cell.total_bytes_sent

    def test_cache_key_never_aliases_experiment_and_input_name(self, tmp_path):
        """Regression: the '--' separator and the filename sanitizer must not
        let distinct (experiment, input_name) pairs share a checkpoint."""
        runner = ExperimentRunner(cache_dir=tmp_path)
        pairs = [("a", "b--c"), ("a--b", "c"), ("w", "web 1"), ("w", "web/1")]
        paths = {runner._cell_cache_path(e, "deadbeef", 2, i) for e, i in pairs}
        assert len(paths) == len(pairs)

    def test_corrupt_checkpoint_recomputes(self, tmp_path):
        from repro.session import MSSpec

        runner = ExperimentRunner(cache_dir=tmp_path)
        data = random_strings(120, 1, 8, seed=24)
        blocks = [data[:60], data[60:]]
        runner.run_cell("unit", MSSpec(), 2, "rand", blocks)
        (path,) = tmp_path.glob("*.json")
        path.write_text("{not json")
        again = ExperimentRunner(cache_dir=tmp_path)
        cell = again.run_cell("unit", MSSpec(), 2, "rand", blocks, resume=True)
        assert again.cells_resumed == 0
        assert cell.num_strings == 120
        # the overwritten checkpoint is valid again
        assert CellResult.from_dict(json.loads(path.read_text())) == cell

    def test_no_cache_dir_means_no_files(self, tmp_path):
        runner = ExperimentRunner()
        data = random_strings(100, 1, 8, seed=25)
        runner.run_cell("unit", "ms", 2, "rand", [data[:50], data[50:]])
        assert runner._cell_cache_path("unit", "abc", 2, "rand") is None


class TestExperimentResult:
    def _tiny_result(self):
        runner = ExperimentRunner()
        data = random_strings(120, 1, 8, seed=3)
        blocks = [data[:60], data[60:]]
        res = ExperimentResult("unit", "desc")
        for alg in ("ms", "pdms"):
            res.add(runner.run_cell("unit", alg, 2, "rand", blocks))
        return res

    def test_filter(self):
        res = self._tiny_result()
        assert len(res.filter(algorithm="ms")) == 1
        assert res.filter(algorithm="nope") == []

    def test_render_contains_all_series(self):
        res = self._tiny_result()
        text = res.render("bytes_per_string")
        assert "ms" in text and "pdms" in text and "p=2" in text

    def test_json_roundtrip(self):
        res = self._tiny_result()
        payload = json.loads(res.to_json())
        assert payload["name"] == "unit"
        assert len(payload["cells"]) == 2
        assert all("bytes_per_string" in c for c in payload["cells"])

    def test_cell_as_dict(self):
        res = self._tiny_result()
        d = res.cells[0].as_dict()
        assert isinstance(d, dict) and d["experiment"] == "unit"


class TestCannedExperimentsSmall:
    """Smoke-run each canned experiment at miniature scale."""

    def test_weak_scaling_dn_structure(self):
        results = weak_scaling_dn(
            dn_values=(0.0, 1.0),
            pe_counts=(2,),
            strings_per_pe=80,
            string_length=40,
            algorithms=("ms", "pdms"),
        )
        assert len(results) == 2
        for res in results:
            assert {c.algorithm for c in res.cells} == {"ms", "pdms"}

    def test_strong_scaling_corpus(self):
        corpus = random_strings(200, 5, 25, seed=4)
        res = strong_scaling_corpus(
            corpus, "rand", "unit-strong", pe_counts=(2, 4), algorithms=("ms",)
        )
        assert len(res.cells) == 2
        # strong scaling keeps the global input fixed
        assert len({c.num_strings for c in res.cells}) == 1

    def test_suffix_experiment(self):
        res = suffix_instance_experiment(
            text_len=300, max_suffix_len=60, pe_counts=(2,), algorithms=("ms", "pdms")
        )
        ms = res.filter(algorithm="ms")[0]
        pdms = res.filter(algorithm="pdms")[0]
        assert pdms.total_bytes_sent < ms.total_bytes_sent

    def test_skewed_sampling_experiment(self):
        res = skewed_sampling_experiment(num_strings=300, pe_counts=(2,))
        schemes = {c.extra["sampling"] for c in res.cells}
        assert schemes == {"string", "character"}

    def test_ablation_experiment(self):
        res = ablation_lcp_golomb(num_strings=300, pe_counts=(2,))
        variants = {c.extra["variant"] for c in res.cells}
        assert "ms-simple" in variants and "pdms-golomb" in variants
