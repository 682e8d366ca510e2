"""Tests of the benchmark itself.  Run with ``python -m pytest perfbench -q``.

Everything runs in-process at ``SCALE`` of the real input sizes, so the
whole file takes well under 30 s; no timing is asserted.
"""

from __future__ import annotations

import json
import re
import types

import pytest

import common
import layers
import replay
import run
from oracle import Oracle
from workloads import WORKLOADS

SCALE = 0.05
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCH = common.load_benchmark()
IMPORT_S = common.bootstrap()


@pytest.fixture(scope="session", autouse=True)
def _no_process_left():
    yield
    common.stop_children()


def test_stop_children_reaps_the_resource_tracker():
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    tracker = resource_tracker._resource_tracker._pid
    assert tracker in common._children()
    common.stop_children()
    assert common._children() == []


def _end_to_end(name: str, seed: int = 1, seconds: float = 0.0):
    # no seconds: the cap ends the run after one pass over the inputs
    return run.end_to_end(WORKLOADS[name], seed, seconds, SCALE, IMPORT_S)


def test_benchmark_json_names_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert BENCH["paths"] == ["perfbench"]
    names = [
        row["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for row in BENCH[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for row in BENCH["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert row["better"] in ("lower", "higher") and 0 <= row["bound"] <= 0.25
    for row in BENCH["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    assert set(run.EXACT) < {row["name"] for row in BENCH["end_to_end"]}
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCH["workloads"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_reports_every_metric(name, capsys):
    result = _end_to_end(name)
    assert result["failed"] == 0 and result["samples"] == (2 if name == "stream_ms_x2" else 1)
    wanted = [row["name"] for row in BENCH["end_to_end"]]
    unbounded = [row["name"] for row in run.UNBOUNDED]
    assert set(result["metrics"]) == set(wanted) | set(unbounded)
    assert all(result["metrics"][m] > 0 for m in wanted)
    assert result["host"]["cpu_count"] >= 1 and result["host"]["affinity"]

    run.report(name, False, result)
    lines = capsys.readouterr().out.strip().splitlines()
    for row in BENCH["end_to_end"] + run.UNBOUNDED:
        assert any(row["name"] in line and row["unit"] in line for line in lines)
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["attempted"] == result["samples"] + run.SETUPS * run.WARMUPS
    assert list(last["metrics"]) == wanted
    assert all(set(v) == {"value", "unit"} for v in last["metrics"].values())


def test_ops_are_a_fixed_count_capped_by_seconds():
    assert _end_to_end("dn_ms_t1", seconds=60.0)["samples"] == WORKLOADS["dn_ms_t1"].ops
    for workload in WORKLOADS.values():
        assert workload.ops % 2 == 1 or workload.chunk  # the median is an op


def test_seed_decides_the_input_and_the_exact_metrics():
    for workload in WORKLOADS.values():
        once = common.make_inputs(workload, 1, SCALE)
        assert once == common.make_inputs(workload, 1, SCALE)
        assert once != common.make_inputs(workload, 2, SCALE)
    a, b = _end_to_end("web_ms_t4")["metrics"], _end_to_end("web_ms_t4")["metrics"]
    other = _end_to_end("web_ms_t4", seed=2)["metrics"]
    assert [a[m] for m in run.EXACT] == [b[m] for m in run.EXACT]
    assert [a[m] for m in run.EXACT] != [other[m] for m in run.EXACT]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_replay_is_identical_to_cluster_sort(name):
    # ``traced`` counts a replay whose outputs or total_bytes_sent differ
    # from Cluster.sort as a failed op
    result = layers.traced(WORKLOADS[name], 1, 0.0, SCALE)
    assert result["failed"] == 0, result["errors"]
    assert list(result["metrics"]) == [row["name"] for row in BENCH["per_layer"]]
    # the driver takes numbers only: nothing is null while every layer is there
    assert None not in result["metrics"].values(), result["notes"]
    assert 0 < result["metrics"]["reconcile_ratio"] <= 1.1


def test_replay_difference_is_a_failure(monkeypatch):
    real = replay.rank_program

    def lossy(comm, strings, *args):
        out = real(comm, strings, *args)
        out["strings"] = out["strings"][::-1]
        return out

    monkeypatch.setattr(replay, "rank_program", lossy)
    result = layers.traced(WORKLOADS["dn_ms_t4"], 1, 0.0, SCALE)
    assert result["failed"] > 0
    assert any("replay differs" in e for e in result["errors"])


def test_renamed_layer_function_gives_null_with_a_reason(monkeypatch, capsys):
    monkeypatch.setitem(
        replay.ENTRY_POINTS, "dist.exchange", ("repro.dist", "exchange_buckets_renamed")
    )
    result = layers.traced(WORKLOADS["dn_ms_t4"], 1, 0.0, SCALE)
    metrics, notes = result["metrics"], result["notes"]
    assert result["failed"] == 0
    assert metrics["sequential.local_sort_cpu_s"] > 0
    assert metrics["dist.partition_cpu_s"] > 0
    for name in ("dist.exchange_cpu_s", "sequential.merge_cpu_s", "reconcile_ratio"):
        assert metrics[name] is None
        assert "exchange_buckets_renamed" in notes[name]
    assert metrics["net.origin_bytes"] > 0  # counts do not need the replay
    run.report("dn_ms_t4", True, result)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["metrics"]["dist.exchange_cpu_s"]["value"] is None


def test_timings_are_reported_at_the_reference_pace():
    assert min(common.pace_sample()) > 0
    assert common.at_reference_pace(1.0, common.REFERENCE_PACE_S) == 1.0
    assert common.at_reference_pace(1.0, 2 * common.REFERENCE_PACE_S) == 0.5


def _result(outputs, origins=None, inputs=None):
    return types.SimpleNamespace(
        outputs_per_pe=outputs, origins_per_pe=origins, inputs_per_pe=inputs
    )


def test_oracle_rejects_wrong_outputs():
    data = [b"b", b"a", b"c", b"a"]
    oracle = Oracle([data])
    assert oracle.mismatch(0, _result([[b"a", b"a"], [b"b", b"c"]])) is None
    assert "differs" in oracle.mismatch(0, _result([[b"a", b"b"], [b"a", b"c"]]))
    assert "differs" in oracle.mismatch(0, _result([[b"a", b"b", b"c"]]))

    blocks = [[b"bx", b"ay"], [b"cz", b"ay"]]  # sorted per PE: [ay, bx], [ay, cz]
    oracle = Oracle([[s for block in blocks for s in block]])
    good = _result([[b"a", b"a"], [b"b", b"c"]], [[(0, 0), (1, 0)], [(0, 1), (1, 1)]], blocks)
    assert oracle.mismatch(0, good) is None
    twice = _result([[b"a", b"a"], [b"b", b"c"]], [[(0, 0), (0, 0)], [(0, 1), (1, 1)]], blocks)
    assert "twice" in oracle.mismatch(0, twice)
    no_prefix = _result([[b"a", b"x"], [b"b", b"c"]], [[(0, 0), (1, 0)], [(0, 1), (1, 1)]], blocks)
    assert "no prefix" in oracle.mismatch(0, no_prefix)
    unsorted = _result([[b"a", b"b"], [b"a", b"c"]], [[(0, 0), (0, 1)], [(1, 0), (1, 1)]], blocks)
    assert "sorted()" in oracle.mismatch(0, unsorted)
