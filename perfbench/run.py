"""perfbench — the repository's one benchmark.

    python3 perfbench/run.py --workload NAME [--seed S] [--seconds T] [--trace 0|1]
    python3 perfbench/run.py --all | --list

One closed loop, one client, one sort at a time.  ``--trace 0`` (default)
measures the end-to-end metrics with tracing off; ``--trace 1`` measures the
per-layer metrics (``layers.py``).  Every metric is printed by name with
unit, direction and regression bound, and the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from common import (
    Session,
    Tally,
    at_reference_pace,
    bootstrap,
    host_block,
    load_benchmark,
    make_inputs,
    pace_sample,
    peak_rss_mb,
    placement,
    steady_allocator,
    stop_children,
    timed_op,
)
from oracle import Oracle
from workloads import WORKLOADS, Workload

#: set-ups of one run; ``setup_s`` is their median
SETUPS = 3
#: unmeasured, verified ops that end a set-up
WARMUPS = 2
#: metrics that are counts of the program: equal seeds must give equal values
EXACT = ("wire_bytes_per_string", "chars_inspected_per_string", "model_time_s")
#: printed with the end-to-end metrics but not in ``BENCHMARK.json``, which
#: may hold no metric that is 0; the result object carries it as ``failed``
#: and ``attempted``
UNBOUNDED = [{"name": "failed_fraction", "unit": "ratio", "better": "lower"}]


def end_to_end(
    workload: Workload, seed: int, seconds: float, scale: float, import_s: float
) -> Dict[str, Any]:
    """Set up ``SETUPS`` times, then time ``workload.ops`` ops on the last set-up.

    ``seconds`` caps the timed region: once a pass over the inputs is done,
    no op starts later than that.  On the README's host the cap is reached
    only in its slow phases; there it keeps a run inside the driver's limits.

    Every timing is taken between two samples of the host's pace and
    reported at the reference pace (``common.pace_sample``).
    """
    tally = Tally()
    with placement() as cpus:
        host = host_block(cpus)
        setups: List[float] = []  # set-up seconds at the reference pace
        clocks: List[float] = []  # the same as the clock read them
        session = None
        for _ in range(SETUPS):
            if session is not None:
                session.close()
            # the previous set-up's inputs go before the next are made, so
            # that the peak RSS is that of one set-up
            inputs = session = oracle = None
            start = time.perf_counter()
            paces = [pace_sample()[0]]
            inputs = make_inputs(workload, seed, scale)
            paces.append(pace_sample()[0])
            session = Session(workload, inputs)
            oracle = Oracle(inputs)
            for _ in range(WARMUPS):
                timed_op(session, oracle, tally)
                paces.append(pace_sample()[0])
            # a sample is the second of two loops; the first takes as long.
            # The import happens once and counts in every set-up.
            clocks.append(import_s + time.perf_counter() - start - 2 * sum(paces))
            setups.append(at_reference_pace(clocks[-1], statistics.mean(paces)))
        setup_s, setup_clock = statistics.median(setups), statistics.median(clocks)

        # the exact metrics come from the first pass over the inputs, so they
        # are the same when the cap ends a run early
        cycle = len(inputs)
        clock: List[float] = []  # op wall seconds as the clock read them
        walls: List[float] = []  # the same, and op CPU seconds, at the reference pace
        cpus_s: List[float] = []
        first_pass: List[Any] = []
        start = time.perf_counter()
        before = pace_sample()
        while len(walls) < cycle or (
            len(walls) < workload.ops and time.perf_counter() - start < seconds
        ):
            wall, cpu, result, _ = timed_op(session, oracle, tally)
            after = pace_sample()
            clock.append(wall)
            walls.append(at_reference_pace(wall, (before[0] + after[0]) / 2))
            cpus_s.append(at_reference_pace(cpu, (before[1] + after[1]) / 2))
            before = after
            if len(first_pass) < cycle and result is not None:
                first_pass.append(result)
        timed_s = time.perf_counter() - start
        rss = peak_rss_mb()
        session.close()

    strings = sum(len(block) for block in inputs)
    metrics: Dict[str, Optional[float]] = {
        "setup_s": setup_s,
        "sort_s": statistics.median(walls),
        "sort_p75_s": statistics.quantiles(walls, n=4)[2] if len(walls) > 1 else walls[0],
        "sort_cpu_s": sum(cpus_s) / len(cpus_s),
        "strings_per_s": strings / cycle * len(walls) / sum(walls),
        "peak_rss_mb": rss,
        "failed_fraction": tally.failed / max(tally.attempted, 1),
    }
    if len(first_pass) == cycle:
        sent = sum(r.report.total_bytes_sent for r in first_pass)
        # one PE sends nothing; a one-byte floor keeps the ratio off zero,
        # which the driver cannot divide by
        metrics["wire_bytes_per_string"] = max(sent, 1) / strings
        metrics["chars_inspected_per_string"] = (
            sum(sum(r.report.chars_inspected_per_pe) for r in first_pass) / strings
        )
        metrics["model_time_s"] = sum(r.modeled_time() for r in first_pass) / cycle
    else:
        metrics.update(dict.fromkeys(EXACT))
    return {
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "host": host,
        # what the clock read, for the reader
        "clock": {"sort_s": statistics.median(clock), "setup_s": setup_clock},
        "samples": len(walls),
        "timed_s": timed_s,
        "strings_per_op": strings / cycle,
        "notes": {},
    }


def report(name: str, trace: bool, run: Dict[str, Any]) -> None:
    """Print every metric by name, then the result object as the last line."""
    bench = load_benchmark()
    rows = bench["per_layer" if trace else "end_to_end"]
    if not trace:
        rows = rows + UNBOUNDED
    host = run["host"]
    print(
        f"workload {name}  trace={int(trace)}  ops={run['samples']} in {run['timed_s']:.1f} s "
        f"({run['strings_per_op']:.0f} strings each)  attempted={run['attempted']} "
        f"failed={run['failed']}"
    )
    print(
        f"host cpu_count={host['cpu_count']} affinity={host['affinity']} "
        f"python={host['python']} numpy={host['numpy']} load_1min={host['load_1min']:.2f}"
    )
    if "clock" in run:
        print(
            f"clock sort_s={run['clock']['sort_s']:.6g} setup_s={run['clock']['setup_s']:.6g} "
            "(as read; the timings below are at the reference pace)"
        )
    for row in rows:
        value = run["metrics"].get(row["name"])
        bound = f"bound {row['bound']:.0%}" if "bound" in row else ""
        shown = "null" if value is None else f"{value:.6g}"
        reason = run["notes"].get(row["name"], "")
        print(
            f"  {row['name']:<38}{shown:>14} {row['unit']:<10} {row['better']:<7}"
            f"{bound:<10}{reason}"
        )
    for error in run["errors"]:
        print(f"  failure: {error}")
    listed = [row["name"] for row in rows if row not in UNBOUNDED]
    units = {row["name"]: row["unit"] for row in rows}
    print(
        json.dumps(
            {
                "correct": run["failed"] == 0,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {
                    n: {"value": run["metrics"].get(n), "unit": units[n]} for n in listed
                },
            }
        )
    )


def main(argv: Optional[List[str]] = None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--list", action="store_true", help="name the workloads and why")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(bench["run_seconds"]),
        help="no op starts later than this into the timed region",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor")
    args = parser.parse_args(argv)

    if args.list:
        for row in bench["workloads"]:
            print(f"{row['name']:<22}{row['why']}")
        return 0
    if args.all:
        # one process per workload: peak RSS is a process-lifetime maximum
        passed = [
            a for a in (argv if argv is not None else sys.argv[1:]) if a != "--all"
        ]
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, *passed]).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    if args.workload is None:
        parser.error("one of --workload, --all, --list is required")

    import_s = bootstrap()
    workload = WORKLOADS[args.workload]
    if args.trace:
        from layers import traced

        run = traced(workload, args.seed, args.seconds, args.scale)
    else:
        run = end_to_end(workload, args.seed, args.seconds, args.scale, import_s)
    report(workload.name, bool(args.trace), run)
    return 0


def _terminated(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    steady_allocator()
    # a run that is told to stop leaves no process behind either
    signal.signal(signal.SIGTERM, _terminated)
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
