"""The traced run: per-layer metrics, reconciled with ``Cluster.sort``.

Each round times one untraced ``Cluster.sort`` op, an empty ``engine.run``,
one replay of the op (``replay.py``) and the same op on a
``Cluster(trace=True)``; the medians over the rounds give the layer CPU, the
``repro.obs`` overhead and ``reconcile_ratio`` (layer CPU summed ÷ CPU of
the untraced op of the same round).  Counts come from ``result.report`` of
the untraced ops.  Afterwards the workload is timed on all CPUs and on the
other engine.  All spans are kept in memory and written to ``perfbench/out/``
at the end.

A metric is ``null`` only when it could not be measured; the reason is
printed next to it.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import replay as rp
from common import (
    ROOT,
    Session,
    Tally,
    cpu_seconds,
    host_block,
    load_benchmark,
    make_inputs,
    placement,
    timed_op,
)
from oracle import Oracle
from workloads import Workload

#: a round takes about as long as four ops (the op, an empty run, its replay,
#: the traced op), so a quarter as many rounds as the end-to-end run has ops
#: take as long; ``obs.trace_overhead_ratio`` needs at least seven
OPS_PER_ROUND = 4
MIN_ROUNDS = 7
#: ops (at least one pass over the inputs) of a comparison run
COMPARE_OPS = 3


def _noop(comm: Any) -> None:
    return None


def _median(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def _ratio(num: Optional[float], den: Optional[float], empty: float) -> Optional[float]:
    """``num / den``; ``empty`` when nothing was there to divide by."""
    if num is None or den is None:
        return None
    return num / den if den else empty


def _compare(
    workload: Workload,
    inputs: List[List[bytes]],
    oracle: Oracle,
    *,
    engine: str,
    pinned: bool,
) -> Tuple[Optional[float], str]:
    """Median op wall time of the workload on another engine or placement.

    Its ops are not the workload's: one that fails makes the comparison
    ``None`` with the reason, and is not counted among the run's ops.
    """
    tally = Tally()
    with placement(pinned):
        session = Session(workload, inputs, engine=engine)
        try:
            timed_op(session, oracle, tally)
            walls = [
                timed_op(session, oracle, tally)[0]
                for _ in range(max(COMPARE_OPS, len(inputs)))
            ]
        finally:
            session.close()
    if tally.failed:
        return None, f"comparison op failed: {tally.errors[0]}"
    return statistics.median(walls), ""


class _Replays:
    """Replayed ops: per-op sums over the ranks, and every span."""

    def __init__(self, workload: Workload, entry_points: Dict[str, Callable]):
        self.workload = workload
        self.entry_points = entry_points
        self.stage_cpu: List[Dict[str, float]] = []
        self.exchange_wait: List[float] = []
        self.join_wait: List[float] = []
        self.merge_runs: List[float] = []
        self.distribute: List[float] = []
        self.explained: List[float] = []  # layer CPU ÷ CPU of the op replayed
        self.overhead: List[float] = []  # CPU of the op replayed − layer CPU
        self.spans: List[Dict[str, Any]] = []
        self.error: Optional[str] = None

    def run(
        self,
        session: Session,
        data: List[bytes],
        result: Any,
        op_cpu: float,
        noop_cpu: float,
        tally: Tally,
    ) -> None:
        """Replay one op and hold it against the ``Cluster.sort`` result.

        ``op_cpu`` is the CPU the ``Cluster.sort`` op took just before and
        ``noop_cpu`` that of an empty ``engine.run`` just after, the engine's
        share of every op: layer CPU is reconciled with the op of the same
        round, so that the host's pace weighs on both sides alike.
        """
        if self.error is not None:
            return
        w = self.workload
        tally.attempted += 1
        try:
            (distribute_s, distribute_cpu), ranks, report = rp.replay(
                data, session.spec, w.num_pes, w.engine, w.topology, self.entry_points
            )
        except Exception as exc:  # noqa: BLE001 - the layer metrics become null
            self.error = f"replay raised {exc!r}"
            tally.fail(self.error)
            return
        op = len(self.stage_cpu)
        cpu: Dict[str, float] = {}
        wait = 0.0
        for rank, r in enumerate(ranks):
            for stage, start, end, cpu_s in r["spans"]:
                cpu[stage] = cpu.get(stage, 0.0) + cpu_s
                if stage == "dist.exchange":
                    # the two clocks differ by microseconds when nothing waits
                    wait += max(0.0, end - start - cpu_s)
                self.spans.append(
                    {"op": op, "rank": rank, "stage": stage, "start": start,
                     "end": end, "cpu_s": cpu_s}
                )
        if all(r["strings"] is not None for r in ranks):
            origins = [r["origins"] for r in ranks]
            if (
                [r["strings"] for r in ranks] != result.outputs_per_pe
                or (result.origins_per_pe is not None and origins != result.origins_per_pe)
                or report.total_bytes_sent != result.report.total_bytes_sent
            ):
                tally.fail("replay differs from Cluster.sort in outputs or total_bytes_sent")
            self.merge_runs.append(sum(r["merge_runs"] for r in ranks))
            layer_cpu = sum(cpu.values()) + distribute_cpu + noop_cpu
            self.explained.append(layer_cpu / op_cpu)
            self.overhead.append(op_cpu - layer_cpu)
        last = max(r["end"] for r in ranks)
        self.stage_cpu.append(cpu)
        self.exchange_wait.append(wait)
        self.join_wait.append(
            sum(last - r["end"] for r in ranks) + sum(report.barrier_wait_seconds.values())
        )
        self.distribute.append(distribute_s)


def _counts(first_pass: List[Any]) -> Dict[str, float]:
    """Exact counts from ``result.report`` of one pass of untraced ops."""
    reports = [r.report for r in first_pass]
    extras = [r.extra for r in first_pass]
    chars = sum(r.num_chars for r in first_pass)
    total = sum(r.total_bytes_sent for r in reports)
    origin = sum(r.origin_bytes_sent for r in reports)
    forwarded = sum(r.forwarded_bytes for r in reports)
    exchange = sum(r.phase_bytes.get("exchange", 0) for r in reports)
    transported = sum(r.transported_bytes for r in reports)
    # a spec without prefix approximation may send every character
    approx = sum(e.get("approx_dist_total", r.num_chars) for e, r in zip(extras, first_pass))
    return {
        "net.origin_bytes": origin,
        "net.forwarded_bytes": forwarded,
        "net.route_inflation": _ratio(total, origin, 1.0),
        "net.messages": sum(sum(r.messages_per_pe) for r in reports),
        "net.exchange_phase_bytes": exchange,
        "net.lcp_compression_ratio": _ratio(chars, exchange - forwarded, 0.0),
        "mpi.transported_bytes": transported,
        "mpi.transport_inflation": _ratio(transported, total, 0.0),
        "dist.prefix_doubling_rounds": sum(e.get("doubling_rounds", 0) for e in extras),
        "dist.fingerprints_sent": sum(e.get("fingerprints_sent", 0) for e in extras),
        "dist.approx_dist_ratio": _ratio(approx, chars, 1.0),
    }


#: metrics that come from the replay
_REPLAYED = {f"{stage}_cpu_s" for stage in rp.ENTRY_POINTS} | {
    "sequential.local_sort_strings_per_s",
    "sequential.merge_strings_per_s",
    "sequential.merge_runs",
    "dist.exchange_wait_s",
    "mpi.barrier_wait_s",
    "session.distribute_s",
    "session.overhead_s",
    "reconcile_ratio",
}


def traced(workload: Workload, seed: int, seconds: float, scale: float) -> Dict[str, Any]:
    """Measure every per-layer metric of one workload.

    The rounds are a fixed count, capped by ``seconds`` like the ops of the
    end-to-end run.
    """
    tally = Tally()
    entry_points, missing = rp.resolve(workload.spec)

    with placement() as cpus:
        host = host_block(cpus)
        start = time.perf_counter()
        inputs = make_inputs(workload, seed, scale)
        generate_s = time.perf_counter() - start
        oracle = Oracle(inputs)
        plain = Session(workload, inputs)
        observed = Session(workload, inputs, trace=True)
        try:
            cycle = len(inputs)
            rounds = max(MIN_ROUNDS, cycle, workload.ops // OPS_PER_ROUND)
            walls: List[float] = []
            observed_walls: List[float] = []
            first_pass: List[Any] = []
            # warm all three paths; the replay's own failures show in the rounds
            _, _, result, index = timed_op(plain, oracle, tally)
            timed_op(observed, oracle, tally)
            if result is not None:
                _Replays(workload, entry_points).run(
                    plain, inputs[index], result, 1.0, 0.0, Tally()
                )
            plain.cluster.engine.run(_noop)
            replays = _Replays(workload, entry_points)
            noop_s: List[float] = []
            noop_cpu: List[float] = []
            start = time.perf_counter()
            while len(walls) < max(MIN_ROUNDS, cycle) or (
                len(walls) < rounds and time.perf_counter() - start < seconds
            ):
                wall, cpu, result, index = timed_op(plain, oracle, tally)
                walls.append(wall)
                t0, c0 = time.perf_counter(), cpu_seconds()
                plain.cluster.engine.run(_noop)
                noop_s.append(time.perf_counter() - t0)
                noop_cpu.append(cpu_seconds() - c0)
                if result is not None:
                    replays.run(plain, inputs[index], result, cpu, noop_cpu[-1], tally)
                    if len(first_pass) < cycle:
                        first_pass.append(result)
                observed_walls.append(timed_op(observed, oracle, tally)[0])
            timed_s = time.perf_counter() - start
        finally:
            plain.close()
            observed.close()

    sort_s = _median(walls)
    strings = sum(len(block) for block in inputs) / cycle
    m: Dict[str, Optional[float]] = {
        "strings.generate_s": generate_s,
        "mpi.engine_noop_s": _median(noop_s),
        "mpi.engine_noop_cpu_s": _median(noop_cpu),
        "obs.trace_overhead_ratio": _ratio(_median(observed_walls), sort_s, 1.0),
    }
    notes: Dict[str, str] = {}

    # -- layer CPU from the replays ------------------------------------------
    stages = rp.STAGES[workload.spec]
    stopped = next((s for s in stages if s in missing), None)
    why = replays.error or (
        f"replay stopped at {stopped}: {missing[stopped]}" if stopped else "no op replayed"
    )
    stage_cpu: Dict[str, Optional[float]] = {}
    for stage in rp.ENTRY_POINTS:
        if stage not in stages:
            stage_cpu[stage] = 0.0  # the spec's rank program has no such stage
        else:
            stage_cpu[stage] = _median([op[stage] for op in replays.stage_cpu if stage in op])
        m[f"{stage}_cpu_s"] = stage_cpu[stage]
    complete = all(v is not None for v in stage_cpu.values())
    m["sequential.local_sort_strings_per_s"] = _ratio(
        strings, stage_cpu["sequential.local_sort"], 0.0
    )
    m["sequential.merge_strings_per_s"] = _ratio(strings, stage_cpu["sequential.merge"], 0.0)
    m["sequential.merge_runs"] = _median(replays.merge_runs)
    m["dist.exchange_wait_s"] = (
        _median(replays.exchange_wait) if stage_cpu["dist.exchange"] is not None else None
    )
    m["mpi.barrier_wait_s"] = _median(replays.join_wait) if complete else None
    m["session.distribute_s"] = _median(replays.distribute)
    m["session.overhead_s"] = _median(replays.overhead)
    m["reconcile_ratio"] = _median(replays.explained)

    if len(first_pass) == cycle:
        m.update(_counts(first_pass))

    # -- the other placement and the other engine ----------------------------
    other = "processes" if workload.engine == "threads" else "threads"
    unpinned, notes["mpi.unpinned_ratio"] = _compare(
        workload, inputs, oracle, engine=workload.engine, pinned=False
    )
    m["mpi.unpinned_ratio"] = _ratio(unpinned, sort_s, 1.0)
    other_s, notes["mpi.procs_speedup_vs_threads"] = _compare(
        workload, inputs, oracle, engine=other, pinned=True
    )
    threads_s, procs_s = (sort_s, other_s) if other == "processes" else (other_s, sort_s)
    m["mpi.procs_speedup_vs_threads"] = _ratio(threads_s, procs_s, 1.0)

    names = [row["name"] for row in load_benchmark()["per_layer"]]
    for name in names:
        if m.get(name) is None and not notes.get(name):
            notes[name] = why if name in _REPLAYED else "an op of the first pass failed"
    _write_trace(workload.name, seed, host, m, notes, replays.spans)
    return {
        "metrics": {name: m.get(name) for name in names},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "host": host,
        "samples": len(walls),
        "timed_s": timed_s,
        "strings_per_op": strings,
        "notes": notes,
    }


def _write_trace(
    name: str,
    seed: int,
    host: Dict[str, Any],
    metrics: Dict[str, Optional[float]],
    notes: Dict[str, str],
    spans: List[Dict[str, Any]],
) -> None:
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    (out / f"trace-{name}-seed{seed}.json").write_text(
        json.dumps(
            {"workload": name, "seed": seed, "host": host, "metrics": metrics,
             "notes": notes, "spans": spans}
        )
    )
