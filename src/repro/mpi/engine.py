"""Thread-per-rank SPMD execution engine with a simulated communicator.

This is the substrate that stands in for the paper's MPI cluster.  Each
simulated PE runs the algorithm's per-rank function in its own Python thread
and communicates through :class:`ThreadComm`, which implements the
:class:`repro.mpi.comm.Communicator` interface on top of

* a shared "board" (one slot per rank) plus a reusable barrier for
  collectives — the classic write / barrier / read / barrier pattern, valid
  because SPMD programs issue collectives in the same order on every rank,
* per-ordered-pair message queues for point-to-point traffic, both blocking
  (``send``/``recv``) and non-blocking (``isend``/``irecv`` returning
  :class:`repro.mpi.comm.Request` handles matched in posting order).

The engine does not try to be fast (the GIL serialises the local work
anyway, which the benchmark methodology accounts for — see
``docs/ARCHITECTURE.md``); it is meant to be *correct*, deadlock-diagnosing
and to deliver exact communication volume accounting via
:class:`repro.net.metrics.TrafficMeter`.

Typical use::

    def my_rank_program(comm, local_strings):
        ...

    results, report = run_spmd(8, my_rank_program, args_per_rank=[(s,) for s in blocks])
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..faults.errors import (
    CorruptFrameError,
    FaultError,
    LostMessageError,
    RankCrashError,
)
from ..faults.inject import FaultInjector
from ..faults.plan import FaultPlan
from ..faults.wire import Envelope, envelope_overhead
from ..net.metrics import TrafficMeter, TrafficReport
from ..obs.recorder import DEFAULT_CAPACITY, Recorder, resolve_trace
from ..obs.timeline import Timeline
from .comm import Communicator, ReduceOp, Request
from .serialization import payload_checksum, wire_size

__all__ = [
    "MeteredComm",
    "ThreadComm",
    "ThreadEngine",
    "SpmdError",
    "run_spmd",
    "default_timeout",
    "ENGINES",
    "get_engine",
    "register_engine",
    "resolve_engine_name",
]

# Default ceiling on how long a rank may wait inside a collective or recv
# before the run is declared deadlocked.  Generous because local sorting of
# large simulated inputs can legitimately take a while on one thread while
# the others already sit in the next barrier.
_DEFAULT_TIMEOUT = 600.0


def default_timeout() -> float:
    """The process-wide default deadlock timeout, in seconds.

    Reads the ``REPRO_SPMD_TIMEOUT`` environment variable at every call (so
    tests and deployments can adjust it without touching code); falls back
    to 600 s.  Every layer that accepts ``timeout=None`` —
    :class:`ThreadEngine`, :func:`run_spmd`, :class:`repro.session.Cluster`,
    the CLI — resolves ``None`` through here.
    """
    raw = os.environ.get("REPRO_SPMD_TIMEOUT", "").strip()
    if not raw:
        return _DEFAULT_TIMEOUT
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_SPMD_TIMEOUT must be a number of seconds, got {raw!r}"
        ) from None
    if value <= 0:
        raise ValueError(f"REPRO_SPMD_TIMEOUT must be positive, got {raw!r}")
    return value


class SpmdError(RuntimeError):
    """Raised when a simulated SPMD run fails (rank exception or deadlock)."""


class _FaultChannel:
    """Fault-mode sender-side state of one ordered ``(src, dst)`` pair.

    ``next_seq`` numbers the channel's messages in send order; ``unacked``
    is the retransmit buffer (clean envelopes, removed when the receiver
    delivers them in order — a piggybacked ack); ``delayed`` pens envelopes
    a ``delay`` rule held back, each with a countdown of messages that must
    overtake it before release.
    """

    __slots__ = ("lock", "next_seq", "unacked", "delayed")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.next_seq = 0
        # seq -> (clean envelope, accounted wire bytes incl. framing)
        self.unacked: Dict[int, Tuple[Envelope, int]] = {}
        # [remaining messages to overtake, held envelope]
        self.delayed: List[List[Any]] = []


@dataclass
class _SharedState:
    """Objects shared by all rank threads of one SPMD run."""

    num_pes: int
    meter: TrafficMeter
    timeout: float
    injector: Optional[FaultInjector] = None
    #: per-rank trace recorders of the *current* run (``None`` = tracing
    #: off); re-armed by the engine before every run, never reused across
    #: runs (a recorder's ring belongs to exactly one run's timeline)
    recorders: Optional[List[Recorder]] = None

    def __post_init__(self) -> None:
        self.barrier = threading.Barrier(self.num_pes)
        self.board: List[Any] = [None] * self.num_pes
        self.queues: Dict[Tuple[int, int], "queue.SimpleQueue[Tuple[int, Any]]"] = {
            (s, d): queue.SimpleQueue()
            for s in range(self.num_pes)
            for d in range(self.num_pes)
        }
        self.error_event = threading.Event()
        self.errors: List[BaseException] = []
        self.error_lock = threading.Lock()
        # fault-mode per-channel sender state, created lazily per pair
        self.channels: Dict[Tuple[int, int], _FaultChannel] = {}
        self._channels_lock = threading.Lock()

    def channel(self, src: int, dst: int) -> _FaultChannel:
        """The fault-mode channel state of the ordered pair ``(src, dst)``."""
        ch = self.channels.get((src, dst))
        if ch is None:
            with self._channels_lock:
                ch = self.channels.setdefault((src, dst), _FaultChannel())
        return ch

    def fail(self, exc: BaseException) -> None:
        """Record ``exc`` and abort the run (wakes every blocked rank)."""
        with self.error_lock:
            self.errors.append(exc)
        self.error_event.set()
        self.barrier.abort()

    def reset(self, meter: TrafficMeter, timeout: float) -> None:
        """Re-arm a clean state for the next run on the same machine.

        Only valid after a successful run: the barrier is intact (a broken
        barrier is never reusable) and the message queues have been drained
        by the ranks themselves.  Fault-mode channel state (sequence
        numbers, retransmit buffers, delay pens) starts fresh per run.
        """
        self.meter = meter
        self.timeout = timeout
        self.board = [None] * self.num_pes
        self.error_event = threading.Event()
        self.errors = []
        self.channels = {}
        self.recorders = None

    def is_clean(self) -> bool:
        """Whether this state can be reused (no errors, no stray messages)."""
        return (
            not self.errors
            and not self.barrier.broken
            and all(q.empty() for q in self.queues.values())
        )


class _SendRequest(Request):
    """Request handle of an :meth:`ThreadComm.isend`.

    The simulated network has unbounded buffering (per-pair ``SimpleQueue``),
    so a non-blocking send completes eagerly: the payload is enqueued and the
    wire bytes accounted at post time, and the handle is born completed.
    """

    __slots__ = ()

    def test(self) -> bool:
        """Always complete (see class docstring)."""
        return True

    def wait(self) -> None:
        """Sends carry no payload; returns ``None`` immediately."""
        return None


class _RecvRequest(Request):
    """Request handle of an :meth:`ThreadComm.irecv`.

    Outstanding receives from the same source are matched to incoming
    messages in *posting* order (the MPI non-overtaking rule): whichever
    request is polled, the communicator first drains the source's queue into
    the pending-request FIFO, so driving requests out of order cannot steal
    a message destined for an earlier request.
    """

    __slots__ = ("_comm", "source", "tag", "_done", "_value", "_posted")

    def __init__(self, comm: "ThreadComm", source: int, tag: int):
        self._comm = comm
        self.source = source
        self.tag = tag
        self._done = False
        self._value: Any = None
        # the deadlock clock starts when the receive is *posted*, not at the
        # first poll: a rank that posts an irecv and then computes for longer
        # than the timeout before polling must still abort promptly if the
        # peer is gone.
        self._posted = time.monotonic()

    def _complete(self, got_tag: int, obj: Any) -> None:
        if got_tag != self.tag:
            raise SpmdError(
                f"rank {self._comm.rank}: tag mismatch receiving from "
                f"{self.source}: expected {self.tag}, got {got_tag} "
                "(SPMD ordering violated)"
            )
        self._value = obj
        self._done = True

    def test(self) -> bool:
        """Poll: drain the source queue, then report completion or timeout."""
        if self._done:
            return True
        comm = self._comm
        if comm._state.error_event.is_set():
            raise SpmdError(
                f"rank {comm.rank}: SPMD run aborted while waiting for "
                f"a message from rank {self.source}"
            )
        comm._match_pending_recvs(self.source)
        if self._done:
            return True
        if comm._fault:
            # nothing arrived: after a backoff, pull a retransmit of the
            # expected message from the sender's buffer (drop recovery)
            comm._maybe_backoff_pull(self.source)
            comm._match_pending_recvs(self.source)
            if self._done:
                return True
        if time.monotonic() - self._posted > comm._state.timeout:
            message = (
                f"rank {comm.rank}: timed out waiting for a message "
                f"from rank {self.source} (tag {self.tag})"
            )
            # in fault mode the typed error names the failure class the
            # chaos suite asserts on; the engine wraps it in SpmdError
            exc: BaseException = (
                LostMessageError(message) if comm._fault else SpmdError(message)
            )
            comm._state.fail(exc)
            raise SpmdError(
                f"rank {comm.rank}: recv timeout from rank {self.source}"
            )
        return False

    def wait(self) -> Any:
        """Block until the message arrives; returns the payload.

        When this request is the oldest outstanding receive for its source
        (the common case — and always the case for blocking ``recv``), the
        wait blocks in ``queue.get`` like the engine always has, so idle
        ranks sleep in the OS instead of spinning the GIL; ``test()`` still
        runs every timeout slice for abort/deadlock detection.  Requests
        behind an older sibling fall back to polling until they reach the
        head of the FIFO.
        """
        comm = self._comm
        if comm._fault:
            # every arrival must pass the sequencing/verification layer, so
            # the blocking fast path below (which bypasses it) is disabled;
            # test() pumps, verifies and recovers on every poll
            while not self.test():
                time.sleep(0.0005)
            return self._value
        q = comm._state.queues[(self.source, comm.rank)]
        while not self.test():
            pending = comm._pending_recvs.get(self.source)
            if pending and pending[0] is self:
                try:
                    got_tag, obj = q.get(timeout=0.05)
                except queue.Empty:
                    continue
                pending.popleft()._complete(got_tag, obj)  # completes self
            else:
                time.sleep(0.0005)
        return self._value


class MeteredComm(Communicator):
    """Engine-independent core of a metered SPMD communicator.

    Everything that must be **bit-identical across execution engines** lives
    here: the accounting hooks, the collective algebra (which edges each
    collective charges to the meter), the blocking ``recv``/``sendrecv``
    conveniences, and the fault-mode receive pipeline (sequencing, CRC
    verification, gap detection, pull-based recovery with exponential
    backoff).  Concrete engines subclass it and provide only the
    *transport*: how payloads physically move between ranks.

    Subclasses must implement the hook surface:

    * :attr:`_meter` / :attr:`_injector` — the run's shared
      :class:`~repro.net.metrics.TrafficMeter` and optional
      :class:`~repro.faults.inject.FaultInjector`;
    * :meth:`_barrier_wait` / :meth:`_board_exchange` — the low-level
      synchronisation primitives the collectives are built on;
    * :meth:`_fail` — abort the whole run with an exception;
    * :meth:`_recovery_channel` — per-source :class:`_FaultChannel` holding
      the retransmit buffer the recovery path pulls from;
    * ``send`` / ``isend`` / ``irecv`` — the point-to-point transport.

    The thread engine (:class:`ThreadComm`) and the multiprocessing engine
    (:class:`repro.mpi.procengine.ProcComm`) are the two in-tree
    implementations; the conformance suite in ``tests/engine_conformance.py``
    is the executable contract for third-party ones.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        fault: bool,
        recorder: Optional[Recorder] = None,
    ):
        self.rank = rank
        self.size = size
        self._phase = "unlabelled"
        #: this rank's trace recorder, or ``None`` with tracing off — every
        #: instrumentation site is a single ``is None`` test, so the traced
        #: path costs nothing when disarmed (pinned by BENCH_PR10)
        self._recorder = recorder
        self._pending_recvs: Dict[int, Deque[Any]] = {}
        #: whether a fault plan is installed (adds envelope framing + recovery)
        self._fault = fault
        if fault:
            # receiver-side sequencing state, per source rank
            self._expected: Dict[int, int] = {}
            self._ooo: Dict[int, Dict[int, Envelope]] = {}
            self._inbox: Dict[int, Deque[Tuple[int, Any]]] = {}
            # [deadline, armed] exponential-backoff state of the drop detector
            self._pull_backoff: Dict[int, List[float]] = {}

    # ------------------------------------------------------------------ engine hooks
    @property
    def _meter(self) -> TrafficMeter:
        """The run's shared traffic meter (engine hook)."""
        raise NotImplementedError

    @property
    def _injector(self) -> Optional[FaultInjector]:
        """The installed fault injector, or ``None`` (engine hook)."""
        raise NotImplementedError

    def _fail(self, exc: BaseException) -> None:
        """Record ``exc`` and abort the whole run (engine hook)."""
        raise NotImplementedError

    def _recovery_channel(self, source: int) -> "_FaultChannel":
        """Fault-channel state of ``source -> self.rank`` (engine hook)."""
        raise NotImplementedError

    def _barrier_wait(self) -> None:
        """Block until every rank reaches the same point (engine hook)."""
        raise NotImplementedError

    def _board_exchange(self, contribution: Any) -> List[Any]:
        """All ranks contribute one object; everyone observes all of them."""
        raise NotImplementedError

    # ------------------------------------------------------------------ accounting
    def set_phase(self, name: str) -> None:
        """Label this rank's subsequent traffic with ``name``.

        With a fault plan installed this is also the rank-lifecycle hook:
        ``crash`` rules raise :class:`~repro.faults.errors.RankCrashError`
        here and ``straggle`` rules put the rank to sleep.
        """
        self._phase = name
        meter = self._meter
        meter.set_phase(self.rank, name)
        rec = self._recorder
        if rec is not None:
            rec.phase(name)
        injector = self._injector
        if injector is not None:
            action = injector.on_phase(self.rank, name)
            if action is not None:
                if action.kind == "crash":
                    meter.record_fault_injected(self.rank)
                    # a crash is trivially "detected": the run aborts loudly
                    meter.record_fault_detected(self.rank)
                    if rec is not None:
                        rec.instant("fault-crash", {"phase": name})
                    raise RankCrashError(
                        f"rank {self.rank} crashed entering phase {name!r} "
                        "(fault plan)"
                    )
                if action.kind == "straggle":
                    meter.record_fault_injected(self.rank)
                    if rec is not None:
                        rec.instant(
                            "fault-straggle",
                            {"phase": name, "seconds": action.seconds},
                        )
                    time.sleep(action.seconds)

    def get_phase(self) -> str:
        """The current accounting phase label of this rank."""
        return self._phase

    def record_local_work(self, chars: int, items: int = 0) -> None:
        """Charge local character/string work to this rank's meter slot."""
        self._meter.record_local_work(self.rank, chars, items)

    def record_overlap(self, overlapped: float, window: float) -> None:
        """Report split-phase overlap seconds under this rank's current phase."""
        self._meter.record_overlap(self.rank, self._phase, overlapped, window)

    def record_exchange_collective(
        self,
        nbytes: int,
        overlap_fraction: float = 0.0,
        hypercube: bool = False,
        kind: Optional[str] = None,
    ) -> None:
        """Agree on and record one all-to-all event for a split-phase exchange."""
        # agree on the bottleneck volume exactly like the blocking alltoall
        # does (a board exchange moves no accounted bytes), then let rank 0
        # record the one collective event the cost model sees
        stats = self._board_exchange((int(nbytes), float(overlap_fraction)))
        if self.rank == 0:
            if kind is None:
                kind = "alltoall-hypercube" if hypercube else "alltoall"
            self._meter.record_collective(
                kind,
                max(b for b, _ in stats),
                self.size,
                self._phase,
                overlap_fraction=sum(f for _, f in stats) / len(stats),
            )

    def record_route(self, route: str, nbytes: int, forwarded: int) -> None:
        """Attribute one routed batch (full wire size + forwarded share)."""
        self._meter.record_route(self.rank, route, nbytes, forwarded)

    # ------------------------------------------------------------------ blocking p2p
    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive: post an ``irecv`` and wait for it."""
        return self.irecv(source, tag).wait()

    def sendrecv(self, obj: Any, peer: int, tag: int = 0, nbytes: Optional[int] = None) -> Any:
        """Symmetric exchange with ``peer`` (both sides must call this)."""
        self.send(obj, peer, tag, nbytes)
        return self.recv(peer, tag)

    # ------------------------------------------------------------------ fault-mode receive path
    def _accept(self, source: int, env: Envelope) -> None:
        """Sequence one arrived envelope: discard stale, stash early, drain."""
        expected = self._expected.get(source, 0)
        if env.seq < expected:
            # duplicate of an already-delivered message: detected and dropped
            self._meter.record_fault_detected(self.rank)
            return
        # stash (in-sequence or early) and let _drain deliver/recover; an
        # early arrival with a missing predecessor is the gap _drain spots
        self._ooo.setdefault(source, {})[env.seq] = env
        self._drain(source)

    def _drain(self, source: int) -> None:
        """Deliver in-sequence envelopes; recover gaps and corruption.

        A *gap* (the expected message absent while a successor is stashed)
        is proof of a drop — by the store-before-enqueue invariant the
        sender's buffer holds the missing envelope, so it is pulled
        immediately.  A CRC mismatch likewise triggers an immediate pull.
        """
        meter = self._meter
        stash = self._ooo.setdefault(source, {})
        while True:
            expected = self._expected.get(source, 0)
            env = stash.pop(expected, None)
            if env is not None:
                if payload_checksum(env.payload) == env.crc:
                    self._deliver(source, env)
                    continue
                # corruption detected: the clean copy sits in the buffer
                meter.record_fault_detected(self.rank)
                self._pull(source, expected, lost=False)
                continue
            if stash:
                # a successor arrived but the expected message did not:
                # evidence of a drop — pull a retransmit right away
                meter.record_fault_detected(self.rank)
                self._pull(source, expected, lost=True)
                continue
            return

    def _deliver(self, source: int, env: Envelope) -> None:
        """Hand one verified, in-sequence envelope to the inbox (and ack it)."""
        self._expected[source] = env.seq + 1
        ch = self._recovery_channel(source)
        with ch.lock:
            # piggybacked ack: the sender's retransmit buffer frees the slot
            ch.unacked.pop(env.seq, None)
        self._inbox.setdefault(source, deque()).append((env.tag, env.payload))
        self._pull_backoff.pop(source, None)

    def _pull(self, source: int, seq: int, lost: bool) -> None:
        """Pull retransmits of message ``seq`` until one verifies.

        Bounded by the plan's ``max_retransmits`` budget; exhausting it
        raises the typed error (:class:`LostMessageError` for drops,
        :class:`CorruptFrameError` for corruption) through :meth:`_fail`
        so every rank aborts promptly.  Only ``corrupt`` rules may strike a
        retransmit, so the loop terminates for every other fault kind.
        """
        meter = self._meter
        injector = self._injector
        ch = self._recovery_channel(source)
        budget = injector.plan.max_retransmits
        attempts = 0
        while attempts < budget:
            attempts += 1
            with ch.lock:
                entry = ch.unacked.get(seq)
            if entry is None:
                # ack raced us (a late duplicate delivered it); nothing to do
                return
            env, env_bytes = entry
            meter.record_retry(self.rank)
            # a retransmit repeats the envelope's wire cost without being
            # origin volume — accounted like forwarded traffic
            meter.record_retransmit(source, self.rank, env_bytes, phase=self._phase)
            rec = self._recorder
            if rec is not None:
                rec.instant(
                    "retransmit",
                    {"source": source, "seq": seq, "bytes": env_bytes},
                )
            action = injector.on_retransmit(source, self.rank, self._phase)
            if action is not None and action.kind == "corrupt":
                # the retransmit was struck too (one more injected fault on
                # the sender's wire); detected, try again
                meter.record_fault_injected(source)
                meter.record_fault_detected(self.rank)
                continue
            self._deliver(source, env)
            return
        kind = "lost" if lost else "corrupt"
        message = (
            f"rank {self.rank}: message seq {seq} from rank {source} still "
            f"{kind} after {budget} retransmits (fault-plan budget exhausted)"
        )
        exc: FaultError = (
            LostMessageError(message) if lost else CorruptFrameError(message)
        )
        self._fail(exc)
        raise exc

    def _maybe_backoff_pull(self, source: int) -> None:
        """Drop detector of last resort: pull after an exponential backoff.

        A dropped *final* message on a channel leaves no successor to prove
        the gap, so an idle receiver arms a deadline; if the expected
        sequence number is still sitting unacked in the sender's buffer when
        it expires, the receiver pulls a retransmit.  Each miss doubles the
        wait so a merely-slow sender is not flooded with pulls.
        """
        expected = self._expected.get(source, 0)
        ch = self._recovery_channel(source)
        with ch.lock:
            pending = expected in ch.unacked
        if not pending:
            # nothing outstanding at this seq: sender never sent it (or the
            # ack landed); disarm so a future gap restarts the clock
            self._pull_backoff.pop(source, None)
            return
        now = time.monotonic()
        armed = self._pull_backoff.get(source)
        delay = self._injector.plan.retry_delay
        if armed is None:
            self._pull_backoff[source] = [now + delay, delay]
            return
        if now < armed[0]:
            return
        # deadline passed and the envelope is still unacked: treat as dropped
        armed[1] *= 2.0
        armed[0] = now + armed[1]
        self._meter.record_fault_detected(self.rank)
        self._pull(source, expected, lost=True)
        self._drain(source)

    # ------------------------------------------------------------------ collectives
    def barrier(self) -> None:
        """Synchronise all ranks (recorded as one zero-byte collective).

        The wait itself is metered as its **own** account
        (:meth:`TrafficMeter.record_barrier_wait`, plus a ``barrier`` trace
        span when tracing): blocked-on-straggler time must not inflate the
        surrounding phase's timings.
        """
        if self.rank == 0:
            self._meter.record_collective("barrier", 0, self.size, self._phase)
        rec = self._recorder
        if rec is not None:
            rec.begin("barrier")
        t0 = time.monotonic()
        self._barrier_wait()
        self._meter.record_barrier_wait(
            self.rank, self._phase, time.monotonic() - t0
        )
        if rec is not None:
            rec.end("barrier")

    def bcast(self, obj: Any, root: int = 0, nbytes: Optional[int] = None) -> Any:
        """Broadcast from ``root``; accounted as a binomial tree."""
        snapshot = self._board_exchange(obj if self.rank == root else None)
        value = snapshot[root]
        if self.rank == root:
            size = wire_size(value) if nbytes is None else nbytes
            # account a binomial-tree broadcast: p-1 copies travel in total,
            # staged over log p rounds; attribute the copies to tree edges,
            # all labelled with the root's phase (reading the edge source's
            # current phase would race with that rank's progress)
            for src, dst in _binomial_tree_edges(root, self.size):
                self._meter.record_send(src, dst, size, phase=self._phase)
            self._meter.record_collective("bcast", size, self.size, self._phase)
        return value

    def gather(self, obj: Any, root: int = 0, nbytes: Optional[int] = None) -> Optional[List[Any]]:
        """Gather at ``root`` (rank order); every other rank sends once."""
        snapshot = self._board_exchange(obj)
        size = wire_size(obj) if nbytes is None else nbytes
        if self.rank != root:
            self._meter.record_send(self.rank, root, size)
        else:
            sizes = [
                wire_size(x) if nbytes is None else nbytes for x in snapshot
            ]
            self._meter.record_collective(
                "gather", max(sizes, default=0), self.size, self._phase
            )
        return list(snapshot) if self.rank == root else None

    def scatter(self, objs: Optional[Sequence[Any]], root: int = 0) -> Any:
        """Deal ``root``'s per-rank objects; each rank receives its slot."""
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise ValueError("scatter root must supply one object per rank")
            contribution = list(objs)
        else:
            contribution = None
        snapshot = self._board_exchange(contribution)
        parts = snapshot[root]
        if self.rank == root:
            sizes = [wire_size(x) for x in parts]
            for dst in range(self.size):
                self._meter.record_send(root, dst, sizes[dst])
            self._meter.record_collective(
                "scatter", max(sizes, default=0), self.size, self._phase
            )
        return parts[self.rank]

    def allgather(self, obj: Any, nbytes: Optional[int] = None) -> List[Any]:
        """All ranks observe all contributions; ring/gossip accounting."""
        snapshot = self._board_exchange(obj)
        size = wire_size(obj) if nbytes is None else nbytes
        # ring/gossip accounting: every PE forwards everything except its own
        # contribution once, hence sends (and receives) total - own bytes
        sizes = [wire_size(x) for x in snapshot] if nbytes is None else None
        if sizes is not None:
            total = sum(sizes)
            own = sizes[self.rank]
        else:
            total = size * self.size
            own = size
        next_rank = (self.rank + 1) % self.size
        if self.size > 1:
            self._meter.record_send(self.rank, next_rank, total - own)
        if self.rank == 0:
            self._meter.record_collective(
                "allgather", max(sizes) if sizes else size, self.size, self._phase
            )
        return list(snapshot)

    def alltoall(
        self,
        objs: Sequence[Any],
        nbytes: Optional[Sequence[int]] = None,
        hypercube: bool = False,
    ) -> List[Any]:
        """Personalised all-to-all; returns received objects in source order."""
        if len(objs) != self.size:
            raise ValueError(
                f"alltoall needs exactly one object per rank "
                f"({self.size}), got {len(objs)}"
            )
        sizes = [
            wire_size(o) if nbytes is None else nbytes[d]
            for d, o in enumerate(objs)
        ]
        for dst in range(self.size):
            self._meter.record_send(self.rank, dst, sizes[dst])
        my_total = sum(sz for d, sz in enumerate(sizes) if d != self.rank)

        snapshot = self._board_exchange(list(objs))
        received = [snapshot[src][self.rank] for src in range(self.size)]

        # one rank records the collective event with the bottleneck volume
        totals = self._board_exchange(my_total)
        if self.rank == 0:
            kind = "alltoall-hypercube" if hypercube else "alltoall"
            self._meter.record_collective(
                kind, max(totals, default=0), self.size, self._phase
            )
        return received

    def reduce(self, value: Any, op: str = ReduceOp.SUM, root: int = 0) -> Any:
        """Reduce per-rank values at ``root``; ``None`` elsewhere."""
        snapshot = self._board_exchange(value)
        size = wire_size(value)
        if self.rank != root:
            # each rank contributes its *own* value's wire size (values may
            # differ per rank — e.g. variable-length payloads)
            self._meter.record_send(self.rank, root, size)
        result = ReduceOp.apply(op, snapshot)
        if self.rank == root:
            # the collective event carries the bottleneck (largest) value,
            # computed from the board snapshot rather than root's own value
            event_size = max((wire_size(v) for v in snapshot), default=0)
            self._meter.record_collective(
                "reduce", event_size, self.size, self._phase
            )
            return result
        return None

    def allreduce(self, value: Any, op: str = ReduceOp.SUM) -> Any:
        """Reduce per-rank values; every rank receives the result."""
        snapshot = self._board_exchange(value)
        size = wire_size(value)
        if self.size > 1:
            # ring accounting: each rank ships its *own* value's wire size
            # to its successor (per-rank sizes may differ)
            next_rank = (self.rank + 1) % self.size
            self._meter.record_send(self.rank, next_rank, size)
        if self.rank == 0:
            # collective event volume = bottleneck value across the board
            event_size = max((wire_size(v) for v in snapshot), default=0)
            self._meter.record_collective(
                "allreduce", event_size, self.size, self._phase
            )
        return ReduceOp.apply(op, snapshot)


class ThreadComm(MeteredComm):
    """Communicator backed by the thread engine's shared state."""

    def __init__(self, rank: int, state: _SharedState):
        super().__init__(
            rank,
            state.num_pes,
            fault=state.injector is not None,
            recorder=state.recorders[rank] if state.recorders else None,
        )
        self._state = state

    # ------------------------------------------------------------------ engine hooks
    @property
    def _meter(self) -> TrafficMeter:
        """The run's shared traffic meter (lives in the shared state)."""
        return self._state.meter

    @property
    def _injector(self) -> Optional[FaultInjector]:
        """The engine's fault injector, or ``None`` outside fault mode."""
        return self._state.injector

    def _fail(self, exc: BaseException) -> None:
        """Abort the run: record ``exc`` and wake every blocked rank."""
        self._state.fail(exc)

    def _recovery_channel(self, source: int) -> _FaultChannel:
        """The shared fault-channel state of ``source -> self.rank``."""
        return self._state.channel(source, self.rank)

    # ------------------------------------------------------------------ low-level sync
    def _barrier_wait(self) -> None:
        try:
            self._state.barrier.wait(timeout=self._state.timeout)
        except threading.BrokenBarrierError:
            raise SpmdError(
                f"rank {self.rank}: SPMD run aborted "
                "(another rank failed or a collective deadlocked)"
            ) from None

    def _board_exchange(self, contribution: Any) -> List[Any]:
        """All ranks contribute one object and observe everyone's contribution."""
        st = self._state
        st.board[self.rank] = contribution
        self._barrier_wait()
        snapshot = list(st.board)
        self._barrier_wait()
        return snapshot

    # ------------------------------------------------------------------ point-to-point
    def send(self, obj: Any, dest: int, tag: int = 0, nbytes: Optional[int] = None) -> None:
        """Enqueue ``obj`` for ``dest`` and account its wire size.

        With a fault plan installed the message travels inside an
        :class:`~repro.faults.wire.Envelope` (sequence number + payload
        CRC32, charged on the wire) and the plan's message rules may strike
        it; without one, this is the zero-overhead baseline path.
        """
        if not 0 <= dest < self.size:
            raise ValueError(f"invalid destination rank {dest}")
        size = wire_size(obj) if nbytes is None else nbytes
        rec = self._recorder
        if rec is not None:
            rec.comm("send", dest, size)
        if not self._fault:
            self._state.meter.record_send(self.rank, dest, size)
            self._state.queues[(self.rank, dest)].put((tag, obj))
            return
        self._fault_send(obj, dest, tag, size)

    def _fault_send(self, obj: Any, dest: int, tag: int, size: int) -> None:
        """Fault-mode send: frame, buffer for retransmission, maybe inject.

        The clean envelope enters the retransmit buffer *before* anything is
        enqueued: any receiver-side evidence of a message (its own arrival,
        a successor's arrival) therefore proves its buffer entry exists, so
        recovery pulls never race the sender.
        """
        state = self._state
        meter = state.meter
        ch = state.channel(self.rank, dest)
        env = Envelope(ch.next_seq, tag, payload_checksum(obj), obj)
        ch.next_seq += 1
        env_bytes = size + envelope_overhead(env.seq)
        with ch.lock:
            ch.unacked[env.seq] = (env, env_bytes)
        meter.record_send(self.rank, dest, env_bytes)
        q = state.queues[(self.rank, dest)]
        action = (
            state.injector.on_send(self.rank, dest, self._phase)
            if dest != self.rank
            else None
        )
        if action is None:
            q.put(env)
        elif action.kind == "drop":
            # never enqueued; the receiver recovers from the buffer
            meter.record_fault_injected(self.rank)
        elif action.kind == "duplicate":
            meter.record_fault_injected(self.rank)
            q.put(env)
            q.put(Envelope(env.seq, env.tag, env.crc, env.payload))
            # the duplicate costs wire bytes but is not origin volume
            meter.record_retransmit(self.rank, dest, env_bytes)
        elif action.kind == "corrupt":
            meter.record_fault_injected(self.rank)
            # tamper a *copy*: the retransmit buffer keeps the clean CRC
            # (payloads move by shared reference, so the simulated bit-flip
            # lives in the envelope's checksum field)
            q.put(Envelope(env.seq, env.tag, env.crc ^ action.mask, env.payload))
        elif action.kind == "delay":
            meter.record_fault_injected(self.rank)
        else:  # pragma: no cover - injector only emits message kinds here
            q.put(env)
        # this send is one overtaking event: held messages tick AFTER the
        # current message entered the queue (otherwise nothing could ever
        # overtake a held message) and BEFORE the current one may be penned
        # (a held message must not tick at its own send)
        self._release_delayed(ch, q)
        if action is not None and action.kind == "delay":
            with ch.lock:
                ch.delayed.append([action.delay_messages, env])

    @staticmethod
    def _release_delayed(ch: _FaultChannel, q: "queue.SimpleQueue") -> None:
        """Tick the channel's delay pen; enqueue envelopes fully overtaken."""
        if not ch.delayed:
            return
        ripe: List[Envelope] = []
        with ch.lock:
            remaining: List[List[Any]] = []
            for entry in ch.delayed:
                entry[0] -= 1
                if entry[0] <= 0:
                    ripe.append(entry[1])
                else:
                    remaining.append(entry)
            ch.delayed = remaining
        for env in ripe:
            q.put(env)

    # ------------------------------------------------------------------ non-blocking
    def isend(
        self, obj: Any, dest: int, tag: int = 0, nbytes: Optional[int] = None
    ) -> Request:
        """Non-blocking send; completes eagerly (the network buffers unboundedly)."""
        # the simulated network buffers without bound, so the transfer
        # "completes" at post time; bytes are accounted exactly like send()
        self.send(obj, dest, tag, nbytes)
        return _SendRequest()

    def irecv(self, source: int, tag: int = 0) -> Request:
        """Post a non-blocking receive; requests match messages in posting order."""
        if not 0 <= source < self.size:
            raise ValueError(f"invalid source rank {source}")
        request = _RecvRequest(self, source, tag)
        self._pending_recvs.setdefault(source, deque()).append(request)
        return request

    def _match_pending_recvs(self, source: int) -> None:
        """Assign queued messages from ``source`` to requests in posting order."""
        pending = self._pending_recvs.get(source)
        if not pending:
            return
        if self._fault:
            # fault mode: raw queue -> sequencing/verification -> inbox
            self._pump(source)
            inbox = self._inbox.get(source)
            while pending and inbox:
                got_tag, obj = inbox.popleft()
                pending.popleft()._complete(got_tag, obj)
            return
        q = self._state.queues[(source, self.rank)]
        while pending:
            try:
                got_tag, obj = q.get_nowait()
            except queue.Empty:
                return
            pending.popleft()._complete(got_tag, obj)

    # ------------------------------------------------------------------ fault-mode receive path
    def _pump(self, source: int) -> None:
        """Drain the raw queue from ``source`` through sequencing/verification."""
        q = self._state.queues[(source, self.rank)]
        while True:
            try:
                env = q.get_nowait()
            except queue.Empty:
                return
            self._accept(source, env)


def _binomial_tree_edges(root: int, p: int) -> List[Tuple[int, int]]:
    """Edges (src, dst) of a binomial broadcast tree rooted at ``root``."""
    edges: List[Tuple[int, int]] = []
    # work in the rotated space where the root is rank 0
    have = [0]
    step = 1
    while step < p:
        for r in list(have):
            other = r + step
            if other < p:
                edges.append(((r + root) % p, (other + root) % p))
                have.append(other)
        step *= 2
    return edges


class ThreadEngine:
    """A reusable simulated machine: thread-per-rank SPMD execution.

    One engine owns the shared state of one simulated cluster (barrier,
    board, per-pair message queues) and runs any number of SPMD programs on
    it, one after the other.  After a clean run the state is **reused** —
    the barrier and queues survive, only the meter and board are re-armed —
    so a long-lived :class:`repro.session.Cluster` does not rebuild ``p²``
    queues for every sort.  A failed run poisons the state (the barrier may
    be broken, queues may hold stray messages), so the next run transparently
    rebuilds it.

    This class is also the **engine selection seam**: alternative backends
    (e.g. a future mpi4py process engine) implement the same two-method
    surface (``__init__(num_pes, timeout=...)`` + :meth:`run`) and register
    under a name via :func:`register_engine`.
    """

    #: registry name of this backend
    name = "threads"

    def __init__(
        self,
        num_pes: int,
        timeout: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        trace: Optional[bool] = None,
        trace_capacity: int = DEFAULT_CAPACITY,
    ):
        if num_pes <= 0:
            raise ValueError("num_pes must be positive")
        self.num_pes = num_pes
        # None -> the process-wide default (REPRO_SPMD_TIMEOUT env or 600 s)
        self.timeout = default_timeout() if timeout is None else timeout
        #: whether runs record per-rank trace timelines (explicit flag >
        #: ``REPRO_TRACE`` env > off); see :mod:`repro.obs`
        self.trace = resolve_trace(trace)
        self.trace_capacity = trace_capacity
        #: the installed chaos schedule, or None for the zero-overhead path
        self.fault_plan = fault_plan
        # the injector outlives individual runs so single-shot rules (e.g.
        # crash-once) stay consumed across a session-level retry
        self._injector: Optional[FaultInjector] = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        self._state: Optional[_SharedState] = None
        # one machine runs one SPMD program at a time: concurrent run()
        # calls on the same engine serialise here (sharing one barrier and
        # one set of queues between two live programs would corrupt both)
        self._run_lock = threading.Lock()
        #: completed :meth:`run` calls (successful or not)
        self.runs_completed = 0
        #: runs that reused the previous run's shared state (machine reuse)
        self.state_reuses = 0

    def _acquire_state(self, meter: TrafficMeter, timeout: float) -> _SharedState:
        if self._state is not None and self._state.is_clean():
            self._state.reset(meter, timeout)
            self.state_reuses += 1
            return self._state
        return _SharedState(
            num_pes=self.num_pes,
            meter=meter,
            timeout=timeout,
            injector=self._injector,
        )

    def run(
        self,
        fn: Callable[..., Any],
        args_per_rank: Optional[Sequence[Tuple]] = None,
        common_args: Tuple = (),
        meter: Optional[TrafficMeter] = None,
        timeout: Optional[float] = None,
    ) -> Tuple[List[Any], TrafficReport]:
        """Run ``fn(comm, *rank_args, *common_args)`` on every simulated PE.

        Parameters
        ----------
        fn:
            The per-rank program.  Its first argument is the rank's
            :class:`ThreadComm`.
        args_per_rank:
            Optional per-rank positional arguments (one tuple per rank),
            e.g. the rank's slice of the input strings.
        common_args:
            Positional arguments appended for every rank.
        meter:
            Optional externally created :class:`TrafficMeter` (useful when a
            caller aggregates several phases); a fresh one by default.
        timeout:
            Deadlock-detection timeout per blocking operation, in seconds
            (defaults to the engine's timeout).

        Returns
        -------
        (results, report):
            ``results[r]`` is the return value of rank ``r``; ``report`` is
            the traffic report of this run only.
        """
        num_pes = self.num_pes
        if args_per_rank is not None and len(args_per_rank) != num_pes:
            raise ValueError("args_per_rank must have one entry per rank")

        meter = meter if meter is not None else TrafficMeter(num_pes)
        meter.engine = self.name
        with self._run_lock:
            return self._run_locked(
                fn, args_per_rank, common_args, meter,
                self.timeout if timeout is None else timeout,
            )

    def _run_locked(
        self,
        fn: Callable[..., Any],
        args_per_rank: Optional[Sequence[Tuple]],
        common_args: Tuple,
        meter: TrafficMeter,
        timeout: float,
    ) -> Tuple[List[Any], TrafficReport]:
        num_pes = self.num_pes
        state = self._acquire_state(meter, timeout)
        state.recorders = (
            [Recorder(rank, capacity=self.trace_capacity) for rank in range(num_pes)]
            if self.trace
            else None
        )
        recorders = state.recorders
        results: List[Any] = [None] * num_pes

        def runner(rank: int) -> None:
            comm = ThreadComm(rank, state)
            rank_args = tuple(args_per_rank[rank]) if args_per_rank is not None else ()
            try:
                results[rank] = fn(comm, *rank_args, *common_args)
            except SpmdError as exc:
                # secondary failures triggered by another rank's abort are noise
                with state.error_lock:
                    if not state.errors:
                        state.errors.append(exc)
                state.error_event.set()
                state.barrier.abort()
            except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
                state.fail(exc)
            finally:
                if recorders is not None:
                    recorders[rank].finish()

        threads = [
            threading.Thread(target=runner, args=(rank,), name=f"pe-{rank}", daemon=True)
            for rank in range(num_pes)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        self.runs_completed += 1
        # keep the machine only if it is provably reusable
        self._state = state if state.is_clean() else None

        if state.errors:
            primary = state.errors[0]
            raise SpmdError(
                f"SPMD run on {num_pes} PEs failed: {primary!r}"
            ) from primary
        report = meter.report()
        if recorders is not None:
            report.timeline = Timeline.from_exports(
                [rec.export() for rec in recorders], num_pes
            )
            report.timeline.meta["engine"] = self.name
        return results, report

    def shutdown(self) -> None:
        """Release the machine's shared state; idempotent.

        Part of the uniform engine lifecycle contract (see
        ``docs/ENGINES.md``): the thread engine has no OS resources to
        reclaim — rank threads are joined at the end of every :meth:`run` —
        so this only drops the reusable shared state.  The engine remains
        usable; the next run simply rebuilds the state.
        """
        self._state = None


#: engine name -> factory (``factory(num_pes, timeout=...)``)
ENGINES: Dict[str, Callable[..., ThreadEngine]] = {"threads": ThreadEngine}


def register_engine(name: str, factory: Callable[..., Any]) -> None:
    """Register an execution backend under ``name`` (e.g. a future ``"mpi"``).

    ``factory(num_pes, timeout=...)`` must return an object with the
    :class:`ThreadEngine` surface (a ``run`` method with the same signature).
    Backends that support chaos testing additionally accept the optional
    ``fault_plan=`` keyword (a :class:`repro.faults.FaultPlan`); callers
    only pass it when a plan is actually installed, so factories without
    the seam keep working.
    """
    if not name:
        raise ValueError("engine name must be a non-empty string")
    if not callable(factory):
        raise TypeError(f"engine factory for {name!r} must be callable")
    ENGINES[name] = factory


def get_engine(name: str) -> Callable[..., Any]:
    """The engine factory registered under ``name`` (ValueError if absent)."""
    try:
        return ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; available: {sorted(ENGINES)} "
            "(register new backends with repro.mpi.engine.register_engine)"
        ) from None


def resolve_engine_name(name: Optional[str] = None) -> str:
    """Resolve an engine name: explicit > ``REPRO_ENGINE`` env > ``"threads"``.

    The single resolution rule every entry point shares —
    :class:`repro.session.Cluster`, :func:`run_spmd` and the CLI's
    ``--engine`` flag all pass their (possibly ``None``) engine argument
    through here, so exporting ``REPRO_ENGINE=processes`` switches a whole
    test run onto the multiprocessing backend without touching code.
    """
    if name:
        return name
    env = os.environ.get("REPRO_ENGINE", "").strip()
    return env or "threads"


def run_spmd(
    num_pes: int,
    fn: Callable[..., Any],
    args_per_rank: Optional[Sequence[Tuple]] = None,
    common_args: Tuple = (),
    meter: Optional[TrafficMeter] = None,
    timeout: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    engine: Optional[str] = None,
    trace: Optional[bool] = None,
) -> Tuple[List[Any], TrafficReport]:
    """Run one SPMD program on a throwaway simulated machine.

    The one-shot convenience wrapper around an execution engine (which
    long-lived callers — e.g. :class:`repro.session.Cluster` — hold on to
    for machine reuse); see :meth:`ThreadEngine.run` for the parameters.
    ``timeout=None`` resolves via :func:`default_timeout` (the
    ``REPRO_SPMD_TIMEOUT`` environment variable, or 600 s); ``fault_plan``
    installs a :class:`repro.faults.FaultPlan` chaos schedule; ``engine``
    picks the backend by registry name via :func:`resolve_engine_name`
    (``None`` honours ``REPRO_ENGINE``, default ``"threads"``); ``trace``
    arms per-rank timeline recording (``None`` honours ``REPRO_TRACE`` —
    and, like ``fault_plan``, the keyword is only forwarded when set, so
    third-party factories without the seam keep working).
    """
    factory = get_engine(resolve_engine_name(engine))
    kwargs: Dict[str, Any] = {"timeout": timeout}
    if fault_plan is not None:
        kwargs["fault_plan"] = fault_plan
    if trace is not None:
        kwargs["trace"] = trace
    backend = factory(num_pes, **kwargs)
    try:
        return backend.run(
            fn, args_per_rank=args_per_rank, common_args=common_args, meter=meter
        )
    finally:
        shutdown = getattr(backend, "shutdown", None)
        if callable(shutdown):
            shutdown()
