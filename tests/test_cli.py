"""Tests for the command-line interface (python -m repro)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sort_defaults(self):
        args = build_parser().parse_args(["sort"])
        assert args.algorithm == "ms"
        assert args.num_pes == 8
        assert args.workload == "dn50"

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sort", "-a", "bogosort"])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "suffix"])
        assert args.name == "suffix"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "figure-nine"])


class TestSortCommand:
    def test_sort_generated_workload(self, capsys, tmp_path):
        out_file = tmp_path / "sorted.txt"
        code = main(
            [
                "sort", "-a", "ms", "-p", "4", "-w", "random",
                "-n", "300", "--check", "-o", str(out_file),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "bytes per string" in captured
        assert "output check       : passed" in captured
        lines = out_file.read_bytes().splitlines()
        assert len(lines) == 300
        assert lines == sorted(lines)

    def test_sort_from_input_file(self, capsys, tmp_path):
        in_file = tmp_path / "input.txt"
        in_file.write_bytes(b"pear\napple\nfig\n")
        out_file = tmp_path / "out.txt"
        code = main(["sort", "-i", str(in_file), "-p", "2", "-o", str(out_file), "--check"])
        assert code == 0
        assert out_file.read_bytes().splitlines() == [b"apple", b"fig", b"pear"]

    def test_sort_pdms_reports_metrics(self, capsys):
        code = main(["sort", "-a", "pdms-golomb", "-p", "3", "-w", "dnareads", "-n", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "total bytes sent" in out and "prefix-doubling" in out


class TestSortSpecFlags:
    def test_distribute_by_chars(self, capsys, tmp_path):
        in_file = tmp_path / "skewed.txt"
        in_file.write_bytes(b"\n".join([b"x" * 60] * 3 + [b"y"] * 100) + b"\n")
        code = main(
            ["sort", "-i", str(in_file), "-p", "4", "--distribute-by", "chars", "--check"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "output check       : passed" in out
        assert "config hash" in out

    def test_inline_spec_json(self, capsys):
        code = main(
            [
                "sort", "-n", "200", "-p", "2", "-w", "random",
                "--spec", '{"algorithm": "pdms", "epsilon": 0.5}',
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "algorithm          : pdms" in out

    def test_spec_file(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"algorithm": "ms", "sampling": "character"}')
        code = main(
            ["sort", "-n", "150", "-p", "2", "-w", "random", "--spec", f"@{spec_file}"]
        )
        assert code == 0
        assert "algorithm          : ms" in capsys.readouterr().out

    def test_bad_spec_key_fails_with_suggestion(self, capsys):
        with pytest.raises(ValueError, match="sampling"):
            main(["sort", "-n", "50", "--spec", '{"algorithm": "ms", "sampilng": "x"}'])

    def test_sampling_flag_is_validated_like_a_spec_key(self, capsys):
        # hquick samples no splitters: the flag is refused, not dropped
        with pytest.raises(ValueError, match="unknown key.*sampling.*hquick"):
            main(["sort", "-a", "hquick", "-n", "50", "--sampling", "character"])
        assert main(["sort", "-a", "hquick", "-n", "50", "-p", "2"]) == 0

    def test_sampling_flag_reaches_the_spec(self, capsys):
        code = main(
            ["sort", "-n", "150", "-p", "2", "-w", "random", "--sampling", "character"]
        )
        assert code == 0
        from repro.session import MSSpec

        expected = MSSpec(sampling="character").config_hash()
        assert f"config hash        : {expected}" in capsys.readouterr().out


class TestAlgorithmsCommand:
    def test_lists_registry(self, capsys):
        code = main(["algorithms"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("hquick", "fkmerge", "ms-simple", "ms", "pdms", "pdms-golomb", "auto"):
            assert name in out
        assert "config=" in out and "epsilon" in out

    def test_json_output_round_trips_through_from_dict(self, capsys):
        from repro.session import SortSpec

        code = main(["algorithms", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) >= 7
        for entry in payload:
            spec = SortSpec.from_dict(entry)
            assert spec.to_dict() == entry


class TestGenerateCommand:
    def test_generate_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "corpus.txt"
        code = main(["generate", "commoncrawl", "-n", "100", "-o", str(out_file)])
        assert code == 0
        lines = out_file.read_bytes().splitlines()
        assert len(lines) == 100


class TestExperimentCommand:
    def test_experiment_prints_tables_and_dumps_json(self, capsys, tmp_path):
        json_path = tmp_path / "cells.json"
        code = main(["experiment", "skewed", "--json", str(json_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "bytes_per_string" in out
        payload = json.loads(json_path.read_text())
        assert isinstance(payload, list) and payload[0]["cells"]

    def test_experiment_custom_metric(self, capsys):
        code = main(["experiment", "suffix", "--metric", "imbalance"])
        assert code == 0
        assert "imbalance" in capsys.readouterr().out
