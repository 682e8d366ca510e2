"""What the end-to-end run and the traced run share.

Locating the checkout's ``repro``, CPU placement and the host block, one
set-up of a workload (:class:`Session`) and one timed, verified op
(:func:`timed_op`).  Only the stable public surface of ``repro`` is used
here: ``Cluster``, the ``*Spec`` classes and the ``repro.strings``
generators.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import resource
import signal
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from oracle import Oracle
from workloads import Workload

ROOT = Path(__file__).resolve().parent.parent


def bootstrap() -> float:
    """Put the checkout's ``src`` on ``sys.path``; returns the import seconds.

    ``REPRO_*`` variables are dropped first: they switch engine, packed path,
    exchange mode and tracing process-wide, and a benchmark run must not
    depend on the caller's shell.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: {src}/repro not found; run from a checkout of the repository"
        )
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    start = time.perf_counter()
    import repro  # noqa: F401 - the import is what is timed

    return time.perf_counter() - start


def load_benchmark() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one table of workload and metric definitions."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


#: glibc malloc gives each rank thread whichever arena is free and moves its
#: mmap threshold as blocks are freed, so the same run lands in states that
#: differ by 40 % in peak RSS and 30 % in op time (README finding (d)); one
#: arena and fixed thresholds keep every run in the same state
ALLOCATOR_ENV = {
    "MALLOC_ARENA_MAX": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
}


def steady_allocator() -> None:
    """Re-execute this program once with ``ALLOCATOR_ENV`` set."""
    if all(os.environ.get(k) == v for k, v in ALLOCATOR_ENV.items()):
        return
    sys.stdout.flush()
    os.execve(sys.executable, sys.orig_argv, {**os.environ, **ALLOCATOR_ENV})


@contextmanager
def placement(pinned: bool = True) -> Iterator[List[int]]:
    """Run on one CPU, or unpinned on every allowed CPU; restored on exit.

    Every workload is measured on one CPU: both engines are bimodal across
    cores (README finding (a)).  Threads and forked workers started inside
    inherit the placement.  The highest-numbered CPU is used because
    interrupts tend to land on CPU 0.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)} if pinned else allowed)
    try:
        yield sorted(os.sched_getaffinity(0))
    finally:
        os.sched_setaffinity(0, allowed)


def _children() -> List[int]:
    """Pids of the live and the unreaped children of this process."""
    me, pids = os.getpid(), []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            parent = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # the process ended while it was read
        if parent == me:
            pids.append(int(stat.parent.name))
    return pids


def stop_children(grace_s: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    The processes engine joins its workers inside every run, but it also
    starts multiprocessing's resource tracker, a process that ends only once
    this one has closed its pipe to it: after exit, where nobody waits for
    it, unless the pipe is closed and the tracker reaped here.  Whatever
    else is still a child after ``grace_s`` seconds is killed and reaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for worker in multiprocessing.active_children():
        worker.terminate()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    fd = getattr(tracker, "_fd", None)
    if fd is not None:
        os.close(fd)  # end of input is the tracker's signal to exit
        tracker._fd = None
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child is left
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                os.kill(child, signal.SIGKILL)
            deadline = float("inf")
        time.sleep(0.005)


def host_block(cpus: List[int]) -> Dict[str, Any]:
    """Where the numbers were taken; warns when the host is already busy."""
    import numpy

    cpu_count = os.cpu_count() or 1
    load = os.getloadavg()[0]
    if load > cpu_count:
        print(
            f"warning: 1-min load average {load:.2f} exceeds cpu_count {cpu_count}; "
            "timings will be noisy",
            file=sys.stderr,
        )
    return {
        "cpu_count": cpu_count,
        "affinity": cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load_1min": load,
    }


#: seconds the pace loop takes in the most common state of the README's host.
#: A unit, not a measurement: a timing taken at this pace is reported as the
#: clock read it, and two commits measured on one host are compared in the
#: same unit whatever its value.
REFERENCE_PACE_S = 0.00225


def _pace_loop() -> Tuple[float, float]:
    wall, cpu = time.perf_counter(), time.thread_time()
    total = 0
    for i in range(50_000):
        total += i * i
    return time.perf_counter() - wall, time.thread_time() - cpu


def pace_sample() -> Tuple[float, float]:
    """``(wall, CPU)`` seconds a fixed interpreter loop takes now.

    The host's clock speed moves by a quarter from second to second and by
    up to a factor of two for minutes, and every timing moves with it
    (README, *Steadiness*).  The loop works on a few integers, so it evicts
    nothing an op left in the caches and does not depend on what is there.
    The loop is run twice and the second run is the sample: for 1-2 ms
    after an op the first one reads up to 9 % high, by an amount that
    depends on the op, the second within 3 % of what it reads after a pause.
    """
    _pace_loop()
    return _pace_loop()


def at_reference_pace(seconds: float, pace: float) -> float:
    """``seconds`` measured while the pace loop took ``pace``, at the reference pace."""
    return seconds * REFERENCE_PACE_S / pace


def cpu_seconds() -> float:
    """CPU of this process (all threads) plus its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def make_inputs(workload: Workload, seed: int, scale: float) -> List[List[bytes]]:
    """The inputs of one op cycle: the whole array, or its stream chunks."""
    data = workload.generate(seed, scale)
    if not workload.chunk:
        return [data]
    return [data[i : i + workload.chunk] for i in range(0, len(data), workload.chunk)]


class Session:
    """One set-up of a workload: its ``Cluster`` and the op that sorts on it.

    Op ``i`` sorts ``inputs[i % len(inputs)]``: the same array every time, or
    the next batch of an endless pass over the chunks through
    ``sort_batches``.
    """

    def __init__(
        self,
        workload: Workload,
        inputs: List[List[bytes]],
        *,
        engine: Optional[str] = None,
        trace: Optional[bool] = None,
    ):
        import repro

        self.inputs = inputs
        self.spec = getattr(repro, workload.spec)()
        self.cluster = repro.Cluster(
            workload.num_pes,
            engine=engine or workload.engine,
            exchange_topology=workload.topology,
            trace=trace,
        )
        self._stream = (
            self.cluster.sort_batches(itertools.cycle(inputs), self.spec)
            if workload.chunk
            else None
        )
        self._next = 0

    def op(self) -> Tuple[Any, int]:
        """Sort the next input; returns ``(result, input index)``."""
        index = self._next % len(self.inputs)
        if self._stream is not None:
            result = next(self._stream)
        else:
            result = self.cluster.sort(self.inputs[index], self.spec)
        # a failed batch stays pending in the stream and is retried by the
        # next op, so the index only advances on success
        self._next += 1
        return result, index

    def close(self) -> None:
        self.cluster.shutdown()


@dataclass
class Tally:
    """Ops attempted and failed (raised, or mismatched the oracle)."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def timed_op(
    session: Session, oracle: Oracle, tally: Tally
) -> Tuple[float, float, Optional[Any], int]:
    """One op, verified outside its timed span.

    Returns ``(wall seconds, CPU seconds, result or None, input index)``.
    """
    tally.attempted += 1
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    try:
        result, index = session.op()
        error = None
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
        result, index, error = None, -1, f"op raised {exc!r}"
    wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
    if error is None:
        error = oracle.mismatch(index, result)
    if error is not None:
        tally.fail(error)
        result = None
    return wall, cpu, result, index
