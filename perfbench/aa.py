"""A/A check: the suite twice on the same code must agree with itself.

    python3 perfbench/aa.py [--seed S] [--seconds T] [--scale X] [--workload NAME ...]

Exits non-zero unless, on every workload, each timing metric of the two
end-to-end runs agrees within its bound in ``BENCHMARK.json``, each exact
metric (``run.EXACT``) is bit-equal, no op failed, and on the four MS
workloads the traced run's ``reconcile_ratio`` lies in ``RECONCILE_BAND``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

from common import load_benchmark
from run import EXACT
from workloads import WORKLOADS

#: share of an op's CPU that the layer calls must explain on the workloads
#: that run ``MSSpec``; on the other two the rank programs do more between
#: the layer calls and the ratio is printed only
RECONCILE_BAND = (0.9, 1.1)
RECONCILED = ("dn_ms_t4", "dn_ms_t1", "web_ms_t4", "stream_ms_x2")


def _run(workload: str, trace: int, args: argparse.Namespace) -> Dict[str, Any]:
    """One run of ``run.py`` in its own process: its last line, parsed, and
    under ``clock`` the timings as the clock read them, as it printed them."""
    done = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).with_name("run.py")),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--scale", str(args.scale),
            "--trace", str(trace),
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    clock = next((line.split(" (")[0] for line in lines if line.startswith("clock ")), "")
    return {**json.loads(lines[-1]), "clock": clock}


def main() -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()

    problems: List[str] = []
    for name in args.workload or list(WORKLOADS):
        # the traced run goes first, so that both end-to-end runs follow a run
        # of the same workload: the first run after one with another memory
        # footprint pays up to twice the set-up time (README, *Steadiness*)
        traced = _run(name, 1, args)
        a, b = _run(name, 0, args), _run(name, 0, args)
        # two runs whose clock readings differ were taken at different paces
        # of the host: the code was the same
        clocks = f"A {a['clock']}, B {b['clock']}"
        print(f"{name:<22}{clocks}")
        for label, run in (("A", a), ("B", b), ("trace", traced)):
            if not run["correct"]:
                problems.append(f"{name} {label}: {run['failed']} of {run['attempted']} ops failed")
        for row in bench["end_to_end"]:
            metric = row["name"]
            x, y = a["metrics"][metric]["value"], b["metrics"][metric]["value"]
            if metric in EXACT:
                agree = x == y
                shown = "equal" if agree else "DIFFERENT"
            else:
                gap = abs(x - y) / min(x, y)
                agree = gap <= row["bound"]
                shown = f"{gap:.2%} apart, bound {row['bound']:.0%}"
            print(f"{name:<22}{metric:<28}{x:<14.6g}{y:<14.6g}{shown}")
            if not agree:
                problems.append(f"{name} {metric}: {x!r} vs {y!r} ({shown}; {clocks})")
        ratio = traced["metrics"]["reconcile_ratio"]["value"]
        low, high = RECONCILE_BAND
        held = name in RECONCILED
        print(
            f"{name:<22}{'reconcile_ratio':<28}{ratio!s:<28}"
            + (f"band [{low}, {high}]" if held else "printed only")
        )
        if held and (ratio is None or not low <= ratio <= high):
            problems.append(f"{name} reconcile_ratio {ratio!r} outside [{low}, {high}]")

    for problem in problems:
        print(f"FAIL {problem}")
    print("A/A agrees" if not problems else f"A/A disagrees: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
