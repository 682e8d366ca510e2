"""Real-parallel SPMD execution: one OS process per rank.

This is the first engine that escapes the GIL: the same rank programs the
thread engine runs are forked into real processes, so local sorting and
merging genuinely run in parallel.  It registers under the name
``"processes"`` (``Cluster(engine="processes")``, ``REPRO_ENGINE=processes``
or the CLI's ``--engine processes``) and subclasses
:class:`~repro.mpi.comm.Communicator` with this transport:

* **data plane** — a full mesh of duplex pipes carries small control
  frames; bulk payloads (packed buckets, LCP arrays) ship as zero-copy
  :mod:`multiprocessing.shared_memory` views via :mod:`repro.mpi.shm`;
* **collectives** — built on a gather-to-rank-0 board exchange with
  explicit collective sequence numbers, reproducing the thread engine's
  write/barrier/read semantics (and, because all accounting lives in the
  shared :class:`~repro.mpi.comm.Communicator` base, recording *exactly*
  the same meter events).

Workers are forked per run: rank programs, closures and the engine's
:class:`~repro.config.RunConfig` are inherited, never pickled.  The parent
folds each worker's full-size traffic meter into the caller's meter,
joins the children and sweeps any shared-memory debris —
:meth:`ProcessEngine.shutdown` is idempotent and the leak-check fixture in
``tests/conftest.py`` holds the engine to that contract.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import threading
import time
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..config import RunConfig
from ..net.metrics import TrafficMeter, TrafficReport
from ..obs.recorder import Recorder
from ..obs.timeline import Timeline
from . import shm
from .comm import Communicator, SpmdError

__all__ = ["ProcComm", "ProcessEngine", "process_engine_available"]

_PROBE: Optional[Tuple[bool, str]] = None


def process_engine_available() -> Tuple[bool, str]:
    """Whether this platform can run the processes engine: ``(ok, reason)``.

    Requires the ``fork`` start method (rank programs are closures, so
    they must be inherited, not pickled) and working POSIX shared memory.
    The conformance fixtures consult this to skip ``processes`` test cells
    gracefully on platforms that lack either.
    """
    global _PROBE
    if _PROBE is None:
        if "fork" not in mp.get_all_start_methods():
            _PROBE = (False, "platform lacks the fork start method")
        else:
            _PROBE = shm.shared_memory_available()
    return _PROBE


class ProcComm(Communicator):
    """Communicator of one rank process (pipes + shared-memory payloads)."""

    def __init__(
        self,
        rank: int,
        size: int,
        peer_conns: Dict[int, Any],
        error_event: Any,
        meter: TrafficMeter,
        config: RunConfig,
        shm_prefix: str,
        recorder: Optional[Recorder] = None,
    ):
        super().__init__(rank, size, meter, config, recorder=recorder)
        self._peer_conns = peer_conns
        self._error_event = error_event
        # when this rank first aborted the run (None: it has not)
        self._failed_at: Optional[float] = None
        self._shm_prefix = shm_prefix
        self._shm_counter = 0
        # zero-copy segments opened on receive; closed at teardown
        self._segments: List[Any] = []
        # control plane: per-source stash of collective steps, by sequence
        self._coll_stash: Dict[int, Dict[int, Any]] = {}
        # per source: point-to-point message bodies received, in send order
        self._wire: Dict[int, Deque[Tuple[Any, ...]]] = {}
        # peers whose pipe reached EOF (they exited; all frames consumed)
        self._dead: set = set()
        # when the pending recv was called: its deadlock clock starts there
        self._recv_called = 0.0

    # ------------------------------------------------------------------ aborts
    def _fail(self, exc: BaseException) -> None:
        """Abort the whole run: flag the shared error event and let the
        exception propagate out of this worker.  The time is taken before
        the flag goes up, so no rank that reacts to it can stamp earlier."""
        if self._failed_at is None:
            self._failed_at = time.monotonic()
        self._error_event.set()

    def _check_abort(self, what: str) -> None:
        """Raise :class:`SpmdError` if another rank aborted the run."""
        if self._error_event.is_set():
            raise SpmdError(
                f"rank {self.rank}: SPMD run aborted while waiting for {what}"
            )

    # ------------------------------------------------------------------ low-level sync
    def _board_exchange(self, contribution: Any) -> List[Any]:
        """All ranks contribute one object and observe everyone's contribution.

        Gather-to-rank-0 then redistribute, with an explicit collective
        sequence number per step (the rendezvous met so far): SPMD programs issue collectives in the
        same order on every rank, so a mismatched sequence number is
        detected as a violation instead of silently crossing wires.  Each
        rank's own slot travels as ``None`` and is spliced back locally
        (its own contribution never needs to round-trip).
        """
        seq = self._steps
        if self.size == 1:
            return [contribution]
        if self.rank == 0:
            board: List[Any] = [None] * self.size
            board[0] = contribution
            for src in range(1, self.size):
                board[src] = self._await_coll(src, seq)
            for dst in range(1, self.size):
                out = list(board)
                out[dst] = None
                self._send_frame(dst, ("coll", seq, out))
            return board
        self._send_frame(0, ("coll", seq, contribution))
        board = list(self._await_coll(0, seq))
        board[self.rank] = contribution
        return board

    def _await_coll(self, src: int, seq: int) -> Any:
        """Wait for collective step ``seq`` from ``src`` (deadlock-clocked)."""
        stash = self._coll_stash.setdefault(src, {})
        deadline = time.monotonic() + self.config.timeout
        while seq not in stash:
            self._check_abort(f"collective step {seq} from rank {src}")
            if not self._service(src, 0.05):
                if src in self._dead:
                    # the peer exited without contributing this step: a
                    # collective it should have joined can never complete
                    exc = SpmdError(
                        f"rank {self.rank}: lost rank {src} before "
                        f"collective step {seq}"
                    )
                    self._fail(exc)
                    raise exc
                if time.monotonic() > deadline:
                    exc = SpmdError(
                        f"rank {self.rank}: timed out in a collective "
                        f"waiting for rank {src} (step {seq})"
                    )
                    self._fail(exc)
                    raise exc
        return stash.pop(seq)

    # ------------------------------------------------------------------ frame transport
    def _send_frame(self, dest: int, frame: Tuple[Any, ...]) -> None:
        """Ship one frame to ``dest`` and count the real transported bytes."""
        self._shm_counter += 1
        name = f"{self._shm_prefix}-{self.rank}-{self._shm_counter}"
        blob, shm_bytes = shm.dumps(frame, segment_name=name)
        try:
            self._peer_conns[dest].send_bytes(blob)
        except (BrokenPipeError, OSError):
            # the receiver is gone; if a segment was created for this frame
            # nobody will ever unlink it, so reclaim it here
            if shm_bytes:
                shm.sweep_segments(name)
            self._check_abort(f"rank {dest} (its pipe closed)")
            # no abort flagged: the peer finished its program and closed
            # its end.  A frame it never posted a matching receive for is
            # dropped silently — the thread engine leaves such messages in
            # a queue nobody reads, and any genuinely missing data still
            # fails on the *receiving* side of some later operation
            self._dead.add(dest)
            return
        self._meter.count("transported_bytes_per_pe", self.rank, len(blob) + shm_bytes)

    def _service(self, src: int, timeout: float) -> bool:
        """Receive whatever ``src``'s pipe holds (waiting up to ``timeout``).

        Returns whether at least one frame was processed.  Frames are
        dispatched by kind: collective steps to the sequence stash,
        point-to-point payloads to the inbox.
        """
        if src in self._dead:
            return False
        conn = self._peer_conns[src]
        got = False
        try:
            if not conn.poll(timeout):
                return False
            self._dispatch(src, conn.recv_bytes())
            got = True
            while conn.poll(0):
                self._dispatch(src, conn.recv_bytes())
        except (EOFError, OSError):
            # EOF is not an error *here*: a finished peer closes its end the
            # moment its last frame is buffered (and EOF makes poll() report
            # readable), so every buffered frame has been consumed by now.
            # The channel is marked dead; whoever still NEEDS a frame from
            # this peer decides that it is a failure (_await_coll, a blocked
            # recv) — whoever already has its data carries on.
            self._dead.add(src)
        return got

    def _dispatch(self, src: int, blob: bytes) -> None:
        """Decode one frame from ``src`` and route it to the right inbox."""
        obj, segment = shm.loads(blob)
        if segment is not None:
            self._segments.append(segment)
        kind = obj[0]
        if kind == "coll":
            _, seq, payload = obj
            self._coll_stash.setdefault(src, {})[seq] = payload
        elif kind == "msg":
            self._wire.setdefault(src, deque()).append(obj[1])
        else:  # pragma: no cover - wire corruption would be a repo bug
            raise SpmdError(
                f"rank {self.rank}: unknown frame kind {kind!r} from rank {src}"
            )

    # ------------------------------------------------------------------ point-to-point
    def _transmit(self, dest: int, body: Tuple[Any, ...]) -> None:
        """Frame the body for ``dest``; self-sends skip the pipe."""
        if dest == self.rank:
            self._wire.setdefault(dest, deque()).append(body)
        else:
            self._send_frame(dest, ("msg", body))

    def _arrivals(self, source: int) -> Optional[Deque[Tuple[Any, ...]]]:
        """Dispatch whatever ``source``'s pipe holds; its received bodies."""
        if source != self.rank:
            self._service(source, 0)
        return self._wire.get(source)

    def recv(self, source: int, tag: int = 0) -> Any:
        """Receive as the base class does; the deadlock clock starts now."""
        self._recv_called = time.monotonic()
        return super().recv(source, tag)

    def _await_message(self, source: int, tag: int) -> None:
        """Wait one slice on the source's pipe (abort/deadlock-clocked).

        Sleeps in ``Connection.poll`` (idle workers sleep in the OS instead
        of spinning).
        """
        self._check_abort(f"a message from rank {source}")
        if source in self._dead:
            # the peer exited and every frame it ever sent was consumed:
            # this message can no longer arrive
            exc = SpmdError(
                f"rank {self.rank}: lost the connection to rank "
                f"{source} while a receive was pending"
            )
            self._fail(exc)
            raise exc
        if time.monotonic() - self._recv_called > self.config.timeout:
            self._fail(SpmdError(
                f"rank {self.rank}: timed out waiting for a message "
                f"from rank {source} (tag {tag})"
            ))
            raise SpmdError(f"rank {self.rank}: recv timeout from rank {source}")
        if source != self.rank:
            self._service(source, 0.02)
        else:  # a self-receive has nothing to poll
            time.sleep(0.0005)

    # ------------------------------------------------------------------ lifecycle
    def _teardown(self) -> None:
        """Close zero-copy segments and pipes (end of the worker's life).

        Segments still referenced by live payload views refuse to close
        (``BufferError``); that is fine — the mapping dies with the process,
        and the names were already unlinked at receive time.
        """
        for seg in self._segments:
            try:
                seg.close()
            except BufferError:
                pass
        self._segments = []
        for conn in self._peer_conns.values():
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass


def _worker_main(
    rank: int,
    size: int,
    pair_conns: Dict[Tuple[int, int], Tuple[Any, Any]],
    child_ends: List[Any],
    error_event: Any,
    fn: Callable[..., Any],
    args_per_rank: Optional[Sequence[Tuple]],
    common_args: Tuple,
    config: RunConfig,
    shm_prefix: str,
) -> None:
    """Entry point of one forked rank worker.

    Runs ``fn(comm, *rank_args, *common_args)`` against a fresh
    :class:`ProcComm`, then reports ``(status, result_or_exc, report,
    trace_export, failed_at)`` to the parent over its
    private pipe; ``failed_at`` is the ``time.monotonic()`` reading at which
    the rank program raised (``None`` on success), by which the parent tells
    the first failure from the ones it caused.
    The worker's meter is full-size (it records explicit rank slots exactly
    like the thread engine's shared meter), so the parent's merge is exact;
    with tracing on, the rank's recorder ring rides the same pipe as a
    plain-data export and the parent rebuilds the aligned timeline
    (``time.monotonic`` is shared across forked processes).
    """
    peers: Dict[int, Any] = {}
    for (i, j), (ci, cj) in pair_conns.items():
        if rank == i:
            peers[j] = ci
            cj.close()
        elif rank == j:
            peers[i] = cj
            ci.close()
        else:
            ci.close()
            cj.close()
    for r, conn in enumerate(child_ends):
        if r != rank:
            conn.close()
    meter = TrafficMeter(size)
    recorder = Recorder(rank) if config.trace else None
    comm = ProcComm(
        rank,
        size,
        peers,
        error_event,
        meter,
        config,
        shm_prefix,
        recorder=recorder,
    )
    status = "done"
    payload: Any = None
    failed_at: Optional[float] = None
    try:
        rank_args = tuple(args_per_rank[rank]) if args_per_rank is not None else ()
        payload = fn(comm, *rank_args, *common_args)
    except BaseException as exc:  # noqa: BLE001 - re-raised in the parent
        # "aborted": an ordering violation or timeout found here, or the echo
        # of another rank's abort; all reported, the parent picks the cause
        failed_at = comm._failed_at or time.monotonic()
        status = "aborted" if isinstance(exc, SpmdError) else "failed"
        payload = exc
        error_event.set()
    report = meter.report()
    if recorder is not None:
        recorder.finish()
    trace_export = recorder.export() if recorder is not None else None
    out = child_ends[rank]
    try:
        out.send((status, payload, report, trace_export, failed_at))
    except Exception:
        try:
            fallback = SpmdError(
                f"rank {rank}: result of type "
                f"{type(payload).__name__} could not be pickled"
            )
            out.send(
                ("failed", fallback, report, trace_export,
                 failed_at or time.monotonic())
            )
        except Exception:  # pragma: no cover - parent sees EOF instead
            pass
    comm._teardown()
    out.close()


_ENGINE_IDS = itertools.count()


class ProcessEngine:
    """A real-parallel machine: one forked OS process per simulated PE.

    The multiprocessing counterpart of :class:`~repro.mpi.engine.ThreadEngine`
    with the same engine surface (``run``, ``shutdown``, ``runs_completed``)
    registered as ``"processes"``.  Workers are forked per run — fork
    (required; see :func:`process_engine_available`) lets rank programs be
    arbitrary closures and carries the engine's run configuration into the
    workers without pickling.
    Conformance with the thread engine — bit-identical outputs, LCPs,
    origin wire bytes and config hashes — is pinned by
    ``tests/test_engine_conformance.py``.
    """

    #: registry name of this backend
    name = "processes"

    def __init__(
        self,
        num_pes: int,
        config: Optional[RunConfig] = None,
    ):
        ok, reason = process_engine_available()
        if not ok:
            raise RuntimeError(f"the processes engine cannot run here: {reason}")
        if num_pes <= 0:
            raise ValueError("num_pes must be positive")
        self.num_pes = num_pes
        #: the run configuration every rank sees as ``comm.config``
        self.config = RunConfig.from_env() if config is None else config
        self._ctx = mp.get_context("fork")
        self._shm_prefix = f"reproshm-{os.getpid()}-{next(_ENGINE_IDS)}"
        self._run_seq = 0
        self._procs: List[Any] = []
        # one machine runs one SPMD program at a time (mirrors ThreadEngine)
        self._run_lock = threading.Lock()
        #: completed :meth:`run` calls (successful or not)
        self.runs_completed = 0
        #: runs that reused the engine's persistent state (the shared-memory
        #: namespace survives across runs; workers do not)
        self.state_reuses = 0

    def run(
        self,
        fn: Callable[..., Any],
        args_per_rank: Optional[Sequence[Tuple]] = None,
        common_args: Tuple = (),
        meter: Optional[TrafficMeter] = None,
    ) -> Tuple[List[Any], TrafficReport]:
        """Run ``fn(comm, *rank_args, *common_args)`` on every PE process.

        Same contract as :meth:`ThreadEngine.run`: returns ``(results,
        report)`` with ``results[r]`` the return value of rank ``r``, or
        raises :class:`SpmdError` chaining the primary failure.  The
        caller's ``meter`` additionally receives the per-worker counters
        (exact element-wise merge), even when the run fails.
        """
        num_pes = self.num_pes
        if args_per_rank is not None and len(args_per_rank) != num_pes:
            raise ValueError("args_per_rank must have one entry per rank")
        meter = meter if meter is not None else TrafficMeter(num_pes)
        meter.engine = self.name
        with self._run_lock:
            return self._run_locked(fn, args_per_rank, common_args, meter)

    def _run_locked(
        self,
        fn: Callable[..., Any],
        args_per_rank: Optional[Sequence[Tuple]],
        common_args: Tuple,
        meter: TrafficMeter,
    ) -> Tuple[List[Any], TrafficReport]:
        num_pes = self.num_pes
        timeout = self.config.timeout
        self._run_seq += 1
        prefix = f"{self._shm_prefix}-r{self._run_seq}"
        # start the resource tracker pre-fork so all workers share one
        # ledger (create/attach/unlink of a segment then balance out)
        shm.ensure_tracker()
        pair_conns = {
            (i, j): self._ctx.Pipe(duplex=True)
            for i in range(num_pes)
            for j in range(i + 1, num_pes)
        }
        parent_ends: List[Any] = []
        child_ends: List[Any] = []
        for _ in range(num_pes):
            recv_end, send_end = self._ctx.Pipe(duplex=False)
            parent_ends.append(recv_end)
            child_ends.append(send_end)
        error_event = self._ctx.Event()
        procs = [
            self._ctx.Process(
                target=_worker_main,
                args=(
                    rank, num_pes, pair_conns, child_ends, error_event,
                    fn, args_per_rank, common_args, self.config, prefix,
                ),
                name=f"repro-pe-{rank}",
                daemon=True,
            )
            for rank in range(num_pes)
        ]
        self._procs = procs
        for proc in procs:
            proc.start()
        # the parent is not a rank: close its copies of the data plane
        for ci, cj in pair_conns.values():
            ci.close()
            cj.close()
        for conn in child_ends:
            conn.close()

        results: List[Any] = [None] * num_pes
        # (when it happened on the clock all forked workers share, rank, what)
        failures: List[Tuple[float, int, BaseException]] = []
        trace_exports: Dict[int, Dict[str, Any]] = {}
        pending: Dict[Any, int] = {conn: r for r, conn in enumerate(parent_ends)}
        deadline = time.monotonic() + timeout + 30.0
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            ready = mp_connection.wait(list(pending), timeout=min(remaining, 1.0))
            for conn in ready:
                rank = pending.pop(conn)
                try:
                    status, payload, report, trace_export, failed_at = conn.recv()
                except (EOFError, OSError):
                    error_event.set()
                    failures.append(
                        (time.monotonic(), rank, SpmdError(
                            f"rank {rank} worker died without reporting "
                            "(killed or crashed hard)"
                        ))
                    )
                    continue
                if report is not None:
                    meter.fold(report)
                if trace_export is not None:
                    trace_exports[rank] = trace_export
                if status == "done":
                    results[rank] = payload
                else:
                    failures.append((failed_at, rank, payload))
        if pending:
            error_event.set()
            for conn, rank in pending.items():
                failures.append(
                    (time.monotonic(), rank, SpmdError(
                        f"rank {rank} did not report within the deadlock "
                        f"deadline ({timeout:.0f}s + grace)"
                    ))
                )
        for proc in procs:
            proc.join(timeout=10.0)
        stragglers = [p for p in procs if p.is_alive()]
        for proc in stragglers:
            proc.terminate()
        for proc in stragglers:
            proc.join(timeout=5.0)
        for conn in parent_ends:
            conn.close()
        shm.sweep_segments(prefix)
        self._procs = []
        self.runs_completed += 1
        if self.runs_completed > 1:
            self.state_reuses += 1
        if failures:
            # a program's own exception beats any SpmdError; among equals the
            # first to happen is the cause, the later ones its echoes
            primary = min(
                failures, key=lambda f: (isinstance(f[2], SpmdError), f[0], f[1])
            )[2]
            raise SpmdError(
                f"SPMD run on {num_pes} PEs failed: {primary!r}"
            ) from primary
        report = meter.report()
        if trace_exports:
            # rank-offset alignment happens inside from_exports: monotonic
            # timestamps are boot-relative and shared across forked workers,
            # so the earliest event over all ranks re-bases the run clock
            report.timeline = Timeline.from_exports(
                [trace_exports[r] for r in sorted(trace_exports)], num_pes
            )
            report.timeline.meta["engine"] = self.name
        return results, report

    def shutdown(self) -> None:
        """Terminate stray workers and sweep shared-memory debris; idempotent.

        Normal runs leave nothing behind — workers are joined and segments
        unlinked inside :meth:`run` — so this is a safety net for callers
        that abandon an engine mid-failure.  The engine remains usable
        afterwards.
        """
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5.0)
        self._procs = []
        shm.sweep_segments(self._shm_prefix)
