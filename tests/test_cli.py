"""Tests for the command-line interface (python -m repro)."""

import json
import re
from pathlib import Path

import pytest

from engine_conformance import PhaseFailure, at_phase
from repro.cli import build_parser, main
from repro.mpi.engine import SpmdError


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
    def test_timeout_flag(self):
        assert main(["sort", "-a", "ms", "-p", "2", "-n", "50", "--timeout", "30"]) == 0

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
        _assert_usage_error(
            capsys,
            ["sort", "-n", "50", "--spec", '{"algorithm": "ms", "sampilng": "x"}'],
            "sampling",
        )

    def test_sampling_flag_is_validated_like_a_spec_key(self, capsys):
        # hquick samples no splitters: the flag is refused, not dropped
        _assert_usage_error(
            capsys,
            ["sort", "-a", "hquick", "-n", "50", "--sampling", "character"],
            "unknown key.*sampling.*hquick",
        )
        assert main(["sort", "-a", "hquick", "-n", "50", "-p", "2"]) == 0

    def test_sampling_flag_reaches_the_spec(self, capsys):
        code = main(
            ["sort", "-n", "150", "-p", "2", "-w", "random", "--sampling", "character"]
        )
        assert code == 0
        from repro.session import MSSpec

        expected = MSSpec(sampling="character").config_hash()
        assert f"config hash        : {expected}" in capsys.readouterr().out


def _assert_usage_error(capsys, argv, match):
    """``argv`` exits 2 with an error matching ``match`` on stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert re.search(match, err), err
    return err


class TestInvalidFlagValues:
    """A flag value nothing can run exits 2 with an error, not a traceback."""

    @pytest.mark.parametrize(
        "argv, match",
        [
            (["sort", "-p", "0"], "num_pes must be positive"),
            (["sort", "--timeout", "-5"], "timeout .*REPRO_SPMD_TIMEOUT"),
            (["sort", "-n", "20", "--spec", "{not json"], "Expecting property name"),
            (["sort", "-n", "20", "--spec", "@no-such-spec.json"], "No such file"),
            (["trace", "run", "-n", "20", "-p", "0", "-o", "unused.json"],
             "num_pes must be positive"),
            (["metrics", "-n", "20", "--timeout", "-5"], "timeout .*REPRO_SPMD_TIMEOUT"),
        ],
    )
    def test_rejected_while_building_the_run(self, capsys, argv, match):
        err = _assert_usage_error(capsys, argv, match)
        assert len(err.strip().splitlines()) == 1, err

    @pytest.mark.parametrize(
        "argv, match",
        [
            (["generate", "dn50", "-n", "-3", "-o", "unused.txt"],
             "--num-strings/-n: must be >= 0, got -3"),
            (["sort", "-n", "-3"], "--num-strings/-n: must be >= 0, got -3"),
        ],
    )
    def test_negative_counts_rejected_at_parse_time(self, capsys, argv, match):
        _assert_usage_error(capsys, argv, match)

    def test_the_retired_grid_topology_is_an_invalid_choice(self, capsys):
        _assert_usage_error(
            capsys,
            ["sort", "-n", "20", "--exchange-topology", "grid"],
            r"invalid choice: 'grid' \(choose from '?direct'?, '?hypercube'?\)",
        )

    def test_an_error_of_the_sort_itself_propagates(self):
        with at_phase("merge"), pytest.raises(SpmdError) as excinfo:
            main(["sort", "-n", "40", "-p", "2"])
        assert isinstance(excinfo.value.__cause__, PhaseFailure)


class TestAlgorithmsCommand:
    def test_lists_registry(self, capsys):
        code = main(["algorithms"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("hquick", "fkmerge", "ms-simple", "ms", "pdms", "pdms-golomb"):
            assert name in out
        assert "config=" in out and "epsilon" in out

    def test_json_output_round_trips_through_from_dict(self, capsys):
        from repro.session import SortSpec

        code = main(["algorithms", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 6
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
    def test_experiment_prints_tables_and_dumps_the_pinned_rows(self, capsys, tmp_path):
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        for path in paths:
            assert main(["experiment", "skewed", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "bytes_per_string" in out and "character-sampling" in out
        payload = json.loads(paths[0].read_text())
        assert (payload["figure"], payload["seed"], len(payload["rows"])) == ("skewed", 0, 2)
        # the dump is deterministic, and at seed 0 it is the file the
        # paper-claims tests pin
        pinned = Path(__file__).resolve().parent / "fixtures" / "figures" / "skewed.json"
        assert paths[0].read_bytes() == paths[1].read_bytes() == pinned.read_bytes()

    def test_experiment_custom_metric(self, capsys):
        code = main(["experiment", "suffix", "--metric", "imbalance"])
        assert code == 0
        assert "imbalance" in capsys.readouterr().out

    def test_an_unknown_metric_exits_2_before_any_sort(self, capsys, monkeypatch):
        from repro import figures

        def no_sort(*args, **kwargs):
            raise AssertionError("a sort ran")

        monkeypatch.setattr(figures, "table", no_sort)
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "skewed", "--metric", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
