"""Gate for the static analyzer: clean tree, caught fixtures, stable output.

Three contracts pinned here:

* ``src/repro`` is lint-clean — every SPMD, wire-format and toggle rule
  reports zero findings on the shipped tree (no false positives on the
  six algorithms across all engines' code paths);
* each seeded fixture under ``tests/fixtures/lint/`` is caught by exactly
  its bug class, and the clean fixture stays clean;
* the report and the per-algorithm comm-graph artifacts are byte-stable
  across runs (deterministic ordering).
"""

import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro.analysis import (
    build_commgraph,
    detect_algorithms,
    parse_tree,
    render_json,
    run_lint,
    write_commgraphs,
)
from repro.cli import main as cli_main
from repro.config import RunConfig

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"

#: every seeded fixture and the one rule class it must trip (the runtime
#: names the bugs of divergent_collective.py, orphan_recv.py and
#: self_send.py on both engines: tests/test_engine_conformance.py)
SEEDED = {
    "collective_mismatch.py": "spmd-collective-mismatch",
    "unchecked_decode.py": "wire-unverified-decode",
    "unverified_frame.py": "wire-unverified-frame",
    "hot_materialize.py": "wire-hot-materialize",
    "rank_materialize.py": "wire-hot-materialize",
    "unregistered_toggle.py": "toggle-unregistered",
}

THE_SIX = {"hquick", "ms", "ms-simple", "fkmerge", "pdms", "pdms-golomb"}


def lint_fixture(name):
    return run_lint(root=None, extra_paths=[FIXTURES / name])


# ---------------------------------------------------------------------------
# the shipped tree is clean
# ---------------------------------------------------------------------------

def test_src_repro_is_lint_clean():
    report = run_lint(SRC_ROOT)
    assert report.ok, "\n".join(
        f"{f.path}:{f.line}: [{f.rule}] {f.message}" for f in report.findings
    )


def test_src_scan_covers_the_whole_package():
    report = run_lint(SRC_ROOT)
    assert report.stats["modules"] > 50
    assert report.stats["rank_programs"] > 20
    # RunConfig.from_env is the only reader, and it is exempt
    assert report.stats["env_reads"] == 0


# ---------------------------------------------------------------------------
# seeded fixtures are caught, each by its own class
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,rule", sorted(SEEDED.items()))
def test_seeded_fixture_is_caught(name, rule):
    report = lint_fixture(name)
    rules = {f.rule for f in report.findings}
    assert rule in rules, f"{name}: expected {rule}, got {sorted(rules)}"


@pytest.mark.parametrize("name,rule", sorted(SEEDED.items()))
def test_seeded_fixture_trips_only_its_class(name, rule):
    report = lint_fixture(name)
    rules = {f.rule for f in report.findings}
    assert rules == {rule}, f"{name}: cross-class findings {sorted(rules)}"


def test_clean_fixture_has_no_findings():
    report = lint_fixture("clean_program.py")
    assert report.ok, [f.to_dict() for f in report.findings]


def test_suppression_comment_silences_a_finding(tmp_path):
    bugged = tmp_path / "suppressed.py"
    bugged.write_text(
        "def twin_roots(comm, counts):\n"
        "    comm.gather(counts, root=0)\n"
        "    return comm.bcast(counts, root=1)  # lint: spmd-ok(spmd-collective-mismatch)\n"
    )
    report = run_lint(root=None, extra_paths=[bugged])
    assert report.ok
    assert [f.rule for f in report.suppressed] == ["spmd-collective-mismatch"]


def test_wildcard_suppression(tmp_path):
    bugged = tmp_path / "suppressed.py"
    bugged.write_text(
        "def twin_roots(comm, counts):\n"
        "    comm.gather(counts, root=0)\n"
        "    # lint: spmd-ok(*)\n"
        "    return comm.bcast(counts, root=1)\n"
    )
    report = run_lint(root=None, extra_paths=[bugged])
    assert report.ok and report.suppressed


# ---------------------------------------------------------------------------
# registry coverage and comm-graph artifacts
# ---------------------------------------------------------------------------

def test_all_registered_algorithms_are_analyzed():
    index = parse_tree(SRC_ROOT)
    algorithms = detect_algorithms(index)
    assert THE_SIX <= set(algorithms)
    # every entry resolves to a function that (transitively) communicates
    for name in THE_SIX:
        graph = build_commgraph(index, name, algorithms[name])
        assert graph["functions"], name


def test_commgraph_artifacts_are_deterministic(tmp_path):
    first = run_lint(SRC_ROOT)
    second = run_lint(SRC_ROOT)
    assert render_json(first) == render_json(second)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    paths_a = write_commgraphs(first, dir_a)
    paths_b = write_commgraphs(second, dir_b)
    assert [p.name for p in paths_a] == [p.name for p in paths_b]
    for pa, pb in zip(paths_a, paths_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_commgraph_schema(tmp_path):
    report = run_lint(SRC_ROOT)
    (path,) = [
        p for p in write_commgraphs(report, tmp_path) if p.name == "commgraph-ms.json"
    ]
    graph = json.loads(path.read_text())
    assert graph["schema"] == "repro.analysis/commgraph/v1"
    assert graph["algorithm"] == "ms"
    assert graph["collective_sequence"], "ms must issue collectives"
    for key, fn in graph["functions"].items():
        assert ":" in key
        for event in fn["events"]:
            assert event["kind"] in ("collective", "p2p")
            assert event["line"] > 0


def test_hquick_is_pure_p2p():
    # hquick's fold/gossip/exchange phases are all point-to-point by design;
    # the analyzer must not hallucinate collectives into its sequence
    index = parse_tree(SRC_ROOT)
    algorithms = detect_algorithms(index)
    graph = build_commgraph(index, "hquick", algorithms["hquick"])
    assert graph["collective_sequence"] == []
    methods = {
        e["method"] for fn in graph["functions"].values() for e in fn["events"]
    }
    assert methods <= {"send", "recv", "sendrecv"}


# ---------------------------------------------------------------------------
# the settings table
# ---------------------------------------------------------------------------

def test_every_setting_has_knob_and_docs_row():
    docs = (SRC_ROOT.parent.parent / "docs" / "API.md").read_text()
    from repro.session.cluster import Cluster
    import inspect

    knobs = set(inspect.signature(Cluster.__init__).parameters)
    for setting in fields(RunConfig):
        env = setting.metadata["env"]
        assert env in docs, f"{env} missing from docs/API.md"
        assert setting.name in knobs, f"{env}: no Cluster knob {setting.name!r}"


def test_a_literal_read_outside_the_reader_is_caught(tmp_path):
    source = tmp_path / "reader.py"
    source.write_text(
        "import os\n"
        "\n"
        "class RunConfig:\n"
        "    @classmethod\n"
        "    def from_env(cls):\n"
        "        return os.environ.get('REPRO_FAST')\n"
        "\n"
        "def elsewhere():\n"
        "    return os.getenv('REPRO_FAST')\n"
    )
    report = run_lint(root=None, extra_paths=[source])
    assert [(f.rule, f.line) for f in report.findings] == [
        ("toggle-unregistered", 9)
    ]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_lint_json(tmp_path, capsys):
    rc = cli_main(["lint", "--json", "--comm-graph", str(tmp_path / "cg")])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["findings"] == []
    assert THE_SIX <= set(payload["algorithms"])
    names = sorted(p.name for p in (tmp_path / "cg").glob("commgraph-*.json"))
    assert "commgraph-hquick.json" in names
    assert len(names) == len(payload["algorithms"])


def test_cli_lint_human(capsys):
    rc = cli_main(["lint"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "OK: no findings" in out
