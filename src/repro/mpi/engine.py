"""Cooperative thread-per-rank SPMD execution engine with a simulated communicator.

This is the substrate that stands in for the paper's MPI cluster.  Each
simulated PE runs the algorithm's per-rank function in its own Python
thread, but the threads take turns: exactly one rank holds the *baton* and
runs, and it passes the baton to the next runnable rank in cyclic order
only where it would block.  Ranks communicate through :class:`ThreadComm`,
which implements the :class:`repro.mpi.comm.Communicator` interface on top of

* a shared "board" (one slot per rank) for collectives — one rendezvous
  per board exchange: each rank writes its slot, and the last to arrive
  takes the snapshot and wakes the others (valid because SPMD programs
  issue collectives in the same order on every rank),
* per-ordered-pair deques for point-to-point traffic, both blocking
  (``send``/``recv``) and non-blocking (``isend``/``irecv`` returning
  :class:`repro.mpi.comm.Request` handles matched in posting order).

The schedule depends on the program alone, never on thread timing, so a
run is deterministic: the same program and fault plan reproduce every
count of the :class:`~repro.net.metrics.TrafficMeter` report (barrier wait
seconds, being timed, aside).  Those waits and the trace timestamps are
read on per-rank clocks that stand still while a rank waits for the baton
(:meth:`_SharedState.now`), so they measure load imbalance, as on a
machine with one CPU per rank.  A blocked rank can only be woken by
another rank's action, so "no rank runnable" is exactly a deadlock: the
engine raises it at once, naming every blocked rank and what it waits for,
and never reads ``RunConfig.timeout`` (only the processes engine does).
The engine does not try to be fast — one rank runs at a time, as under the
GIL anyway (see ``docs/ARCHITECTURE.md``); it is meant to be *correct*,
deterministic, deadlock-diagnosing and exactly metered.

Typical use::

    def my_rank_program(comm, local_strings):
        ...

    results, report = run_spmd(8, my_rank_program, args_per_rank=[(s,) for s in blocks])
"""

from __future__ import annotations

import threading
import time
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..config import RunConfig
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
from ..obs.recorder import DEFAULT_CAPACITY, Recorder
from ..obs.timeline import Timeline
from .comm import Communicator, ReduceOp, Request
from .serialization import payload_checksum, wire_size

__all__ = [
    "MeteredComm",
    "ThreadComm",
    "ThreadEngine",
    "SpmdError",
    "run_spmd",
    "ENGINES",
    "get_engine",
    "register_engine",
]


class SpmdError(RuntimeError):
    """Raised when a simulated SPMD run fails (rank exception or deadlock)."""


#: what a blocked rank waits for: (wake condition, description, withheld
#: check — ``None`` unless it is a fault-mode receive that recovery may serve)
_Wait = Tuple[Callable[[], bool], str, Optional[Callable[[], bool]]]


class _SharedState:
    """One simulated machine: the rank threads' shared objects and scheduler.

    Exactly one rank thread runs at a time, the one whose baton lock was
    released.  A rank hands the baton on only in :meth:`block` — a receive
    with nothing queued, a collective rendezvous — to the next runnable
    rank in cyclic order, and sleeps until a rank hands it back.  Only the
    running rank changes shared state, so the scheduler evaluates the
    blocked ranks' wake conditions itself; the interleaving is a function of
    the program alone.
    """

    def __init__(
        self,
        num_pes: int,
        meter: TrafficMeter,
        config: RunConfig,
        injector: Optional[FaultInjector],
    ):
        self.num_pes = num_pes
        self.config = config
        self.injector = injector
        #: per ordered pair ``(src, dst)``: messages sent and not yet taken
        self.queues: Dict[Tuple[int, int], Deque[Tuple[Any, ...]]] = {
            (s, d): deque() for s in range(num_pes) for d in range(num_pes)
        }
        #: per ordered pair: the sender's clock at each queued message
        self.stamps: Dict[Tuple[int, int], Deque[float]] = {
            pair: deque() for pair in self.queues
        }
        self.reset(meter)

    def reset(self, meter: TrafficMeter) -> None:
        """Arm the per-run state: meter, board, errors and the scheduler."""
        p = self.num_pes
        self.meter = meter
        #: per-rank trace recorders of the *current* run (``None`` = tracing
        #: off); never reused across runs (a recorder's ring belongs to
        #: exactly one run's timeline)
        self.recorders: Optional[List[Recorder]] = None
        self.board: List[Any] = [None] * p
        self.snapshot: List[Any] = []
        self.arrived = 0
        #: completed rendezvous; a waiter wakes when this moves on
        self.collectives = 0
        self.errors: List[BaseException] = []
        # a rank may run while its baton lock is released
        self.batons = [threading.Lock() for _ in range(p)]
        for baton in self.batons:
            baton.acquire()
        #: per rank: wall time it spent off the baton and not waiting (see
        #: :meth:`now`); every rank starts at ``start``, when rank 0 runs
        self.start = 0.0
        self.offsets = [0.0] * p
        #: latest arrival clock of the rendezvous in progress, and the
        #: clock the last completed one released its ranks at
        self.arrival_clock = 0.0
        self.release_clock = 0.0
        self.waits: List[Optional[_Wait]] = [None] * p
        self.finished = [False] * p
        #: the blocked receiver chosen to pull a withheld envelope
        self.rescued: Optional[int] = None

    def fail(self, exc: BaseException) -> None:
        """Record ``exc``: the run aborts, every rank unwinds when it next runs."""
        self.errors.append(exc)

    def is_clean(self) -> bool:
        """Whether this state can be reused (no errors, no stray messages)."""
        return not self.errors and not any(self.queues.values())

    # ------------------------------------------------------------------ clocks
    def now(self, rank: int) -> float:
        """``rank``'s clock: wall time less what it spent waiting for the baton.

        Only one rank runs at a time, so wall time would charge each rank
        for the others' turns.  A rank's clock instead stands still while it
        is off the baton, and jumps forward only to where a parallel machine
        would have released it (:meth:`catch_up`): the latest arrival at a
        rendezvous, the sender's clock at a receive.  Barrier waits and
        trace timestamps are read on this clock, so they measure load
        imbalance, as if every rank had its own CPU.
        """
        return time.monotonic() - self.offsets[rank]

    def catch_up(self, rank: int, clock: float) -> None:
        """Move ``rank``'s clock forward to ``clock`` (never back)."""
        self.offsets[rank] = min(self.offsets[rank], time.monotonic() - clock)

    # ------------------------------------------------------------------ scheduler
    def yield_turn(self, rank: int, what: str) -> bool:
        """Hand the baton to the next runnable rank and sleep until it returns.

        Returns whether no other rank could run.  Raises :class:`SpmdError`
        once the run has aborted (``what`` names what ``rank`` waited for).
        """
        nxt = self._pick(rank)
        if nxt != rank:
            left = time.monotonic()
            self.batons[nxt].release()
            self.batons[rank].acquire()
            self.offsets[rank] += time.monotonic() - left
        if self.errors:
            raise SpmdError(f"rank {rank}: SPMD run aborted while waiting for {what}")
        return nxt == rank

    def block(
        self,
        rank: int,
        ready: Callable[[], bool],
        what: str,
        withheld: Optional[Callable[[], bool]] = None,
    ) -> bool:
        """Let other ranks run until ``ready()`` holds.

        Returns ``True`` instead when no rank could run and ``rank`` was
        chosen to pull the envelope ``withheld()`` reports in its recovery
        buffer.  Raises :class:`SpmdError` once the run has aborted.
        """
        self.waits[rank] = (ready, what, withheld)
        try:
            while not ready():
                self.yield_turn(rank, what)
                if self.rescued == rank:
                    self.rescued = None
                    return True
            return False
        finally:
            self.waits[rank] = None

    def finish(self, rank: int) -> None:
        """``rank`` returned: hand the baton on for good."""
        self.finished[rank] = True
        if not all(self.finished):
            self.batons[self._pick(rank)].release()

    def _pick(self, rank: int) -> int:
        """The rank to run after ``rank`` (some rank has not returned).

        The first runnable rank in cyclic order after ``rank`` (``rank``
        itself last).  With none runnable, a blocked fault-mode receiver
        whose recovery buffer withholds the envelope it waits for is chosen
        to pull it; failing that the run is deadlocked, which is recorded
        as the run's error (every rank then runs, to unwind).
        """
        order = [(rank + i) % self.num_pes for i in range(1, self.num_pes + 1)]
        for r in order:
            wait = self.waits[r]
            if not self.finished[r] and (wait is None or self.errors or wait[0]()):
                return r
        for r in order:
            wait = self.waits[r]
            withheld = wait[2] if wait is not None else None
            if withheld is not None and withheld():
                self.rescued = r
                return r
        self.fail(self._deadlock())
        return next(r for r in order if not self.finished[r])

    def _deadlock(self) -> BaseException:
        """The error naming every rank's state when none can run."""
        states = [
            f"rank {r} has returned" if wait is None else f"rank {r} waits for {wait[1]}"
            for r, wait in enumerate(self.waits)
        ]
        message = "deadlock, no rank can run: " + "; ".join(states)
        # in fault mode a starved receive is the typed failure class the
        # chaos suite asserts on; the engine wraps it in SpmdError
        if any(wait is not None and wait[2] is not None for wait in self.waits):
            return LostMessageError(message)
        return SpmdError(message)


class _SendRequest(Request):
    """Request handle of an ``isend``.

    The simulated network has unbounded buffering, so a non-blocking send
    completes eagerly: the payload is handed to the transport and the wire
    bytes accounted at post time, and the handle is born completed.
    """

    __slots__ = ()

    def test(self) -> bool:
        """Always complete (see class docstring)."""
        return True

    def wait(self) -> None:
        """Sends carry no payload; returns ``None`` immediately."""
        return None


class _RecvRequest(Request):
    """Request handle of an ``irecv``.

    Outstanding receives from the same source are matched to incoming
    messages in *posting* order (the MPI non-overtaking rule): whichever
    request is polled, the communicator first hands the source's arrivals
    to the pending-request FIFO, so driving requests out of order cannot
    steal a message destined for an earlier request.
    """

    __slots__ = ("_comm", "source", "tag", "_done", "_value")

    def __init__(self, comm: "MeteredComm", source: int, tag: int):
        self._comm = comm
        self.source = source
        self.tag = tag
        self._done = False
        self._value: Any = None

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
        """Poll: match what has arrived; never blocks.

        A poll that finds nothing lets the engine serve other ranks first
        (:meth:`MeteredComm._poll_missed`), so a rank that spins on
        ``test()`` does not starve the peer it waits for.  Raises
        :class:`SpmdError` once the run has aborted.
        """
        if not self._done:
            comm = self._comm
            comm._match_pending_recvs(self.source)
            if not self._done:
                comm._poll_missed(self)
        return self._done

    def wait(self) -> Any:
        """Block until the message arrives; returns the payload."""
        comm = self._comm
        while not self._done:
            comm._match_pending_recvs(self.source)
            if not self._done:
                comm._await_message(self)
        return self._value


class MeteredComm(Communicator):
    """Engine-independent core of a metered SPMD communicator.

    Everything that must be **bit-identical across execution engines** lives
    here: the accounting hooks, the collective algebra (which edges each
    collective charges to the meter), the SPMD checks (every rendezvous
    compares the ranks' collective signatures, :meth:`_meet`; a blocking
    send to one's own rank is refused), point-to-point framing and
    posting-order matching, and the fault-mode receive pipeline (injection
    on arrival, sequencing, CRC verification, gap detection, pull-based
    recovery).
    Concrete engines subclass it and provide only the *transport*: how
    payloads physically move between ranks and how a rank waits.

    Subclasses must implement the hook surface:

    * :meth:`_fail` — abort the whole run with an exception;
    * :meth:`_board_exchange` — every rank contributes one object and
      observes all of them (every collective meets through it, in
      :meth:`_meet`);
    * :meth:`_transmit` — carry one point-to-point message body to ``dest``;
    * :meth:`_arrivals` — the bodies that have arrived from ``source``, in
      send order, as a deque the caller consumes;
    * :meth:`_await_message` — wait until more may have arrived for a
      pending receive (or raise if it never can);
    * :meth:`_poll_missed` — a ``test()`` found nothing: check for an
      aborted run and let other ranks progress.

    :meth:`_now`, the clock barrier waits are metered on, is wall time
    unless an engine overrides it.

    The thread engine (:class:`ThreadComm`) and the multiprocessing engine
    (:class:`repro.mpi.procengine.ProcComm`) are the two in-tree
    implementations; the conformance suite in ``tests/engine_conformance.py``
    is the executable contract for third-party ones.
    """

    #: the request class :meth:`irecv` creates
    _request_type = _RecvRequest

    def __init__(
        self,
        rank: int,
        size: int,
        meter: TrafficMeter,
        injector: Optional[FaultInjector],
        config: RunConfig,
        recorder: Optional[Recorder] = None,
    ):
        self.rank = rank
        self.size = size
        #: the run configuration of the engine this rank runs on
        self.config = config
        #: the meter this rank records into, and the installed fault injector
        self._meter = meter
        self._injector = injector
        self._phase = "unlabelled"
        #: this rank's trace recorder, or ``None`` with tracing off — every
        #: instrumentation site is a single ``is None`` test, so the traced
        #: path costs nothing when disarmed (pinned by BENCH_PR10)
        self._recorder = recorder
        self._pending_recvs: Dict[int, Deque[_RecvRequest]] = {}
        #: rendezvous this rank has met (the step number of the next), and
        #: the signature of the latest (``bcast(root=0)``; :meth:`_meet`)
        self._steps = 0
        self._call = ""
        #: whether a fault plan is installed (adds envelope framing + recovery)
        self._fault = injector is not None
        if self._fault:
            # sender side: next sequence number per destination
            self._send_seq: Dict[int, int] = {}
            # receiver side, per source: verified (tag, payload) pairs not
            # yet matched, next sequence number to deliver, early arrivals,
            # the recovery buffer (seq -> (clean envelope, wire bytes incl.
            # framing)) and the delay pen ([arrivals still to overtake,
            # held envelope])
            self._inbox: Dict[int, Deque[Tuple[Any, ...]]] = {}
            self._expected: Dict[int, int] = {}
            self._ooo: Dict[int, Dict[int, Envelope]] = {}
            self._unacked: Dict[int, Dict[int, Tuple[Envelope, int]]] = {}
            self._delay_pens: Dict[int, List[List[Any]]] = {}

    # ------------------------------------------------------------------ engine hooks
    def _fail(self, exc: BaseException) -> None:
        """Record ``exc`` and abort the whole run (engine hook)."""
        raise NotImplementedError

    def _board_exchange(self, contribution: Any) -> List[Any]:
        """All ranks contribute one object; everyone observes all of them."""
        raise NotImplementedError

    def _transmit(self, dest: int, body: Tuple[Any, ...]) -> None:
        """Carry one message body to ``dest`` (engine hook)."""
        raise NotImplementedError

    def _arrivals(self, source: int) -> Optional[Deque[Tuple[Any, ...]]]:
        """The message bodies that arrived from ``source`` (engine hook)."""
        raise NotImplementedError

    def _await_message(self, request: _RecvRequest) -> None:
        """Wait until more may have arrived for ``request`` (engine hook)."""
        raise NotImplementedError

    def _poll_missed(self, request: _RecvRequest) -> None:
        """``request.test()`` found nothing (engine hook)."""
        raise NotImplementedError

    def _now(self) -> float:
        """This rank's clock for metered waits, in seconds."""
        return time.monotonic()

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
                    meter.count("faults_injected_per_pe", self.rank)
                    # a crash is trivially "detected": the run aborts loudly
                    meter.count("faults_detected_per_pe", self.rank)
                    if rec is not None:
                        rec.instant("fault-crash", {"phase": name})
                    raise RankCrashError(
                        f"rank {self.rank} crashed entering phase {name!r} "
                        "(fault plan)"
                    )
                if action.kind == "straggle":
                    meter.count("faults_injected_per_pe", self.rank)
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

    def record_exchange_collective(self, nbytes: int, kind: str) -> None:
        """Agree on and record the one all-to-all event of a routed exchange."""
        # agree on the bottleneck volume exactly like the blocking alltoall
        # does (a board exchange moves no accounted bytes), then let rank 0
        # record the one collective event the cost model sees
        totals = self._meet("record_exchange_collective", int(nbytes))
        if self.rank == 0:
            self._meter.record_collective(kind, max(totals), self.size, self._phase)

    def record_route(self, route: str, nbytes: int, forwarded: int) -> None:
        """Attribute one routed batch (full wire size + forwarded share)."""
        self._meter.record_route(self.rank, route, nbytes, forwarded)

    # ------------------------------------------------------------------ point-to-point
    def send(self, obj: Any, dest: int, tag: int = 0, nbytes: Optional[int] = None) -> None:
        """Send ``obj`` to ``dest`` and account its wire size.

        With a fault plan installed the message travels inside an
        :class:`~repro.faults.wire.Envelope` (sequence number + payload
        CRC32, charged on the wire) stamped with the sender's phase, and the
        plan's message rules strike it on arrival (:meth:`_arrive`); without
        one, this is the zero-overhead baseline path.

        A blocking send to one's own rank raises :class:`SpmdError`: MPI
        may refuse to buffer a standard-mode send, so such a program is not
        portable (an ``isend`` to oneself is legal).
        """
        if dest == self.rank:
            raise SpmdError(
                f"rank {self.rank}: blocking send to its own rank (tag {tag}); "
                "use isend"
            )
        self._post(obj, dest, tag, nbytes)

    def _post(self, obj: Any, dest: int, tag: int, nbytes: Optional[int]) -> None:
        """Hand ``obj`` to the transport for ``dest``; the body of every send."""
        if not 0 <= dest < self.size:
            raise ValueError(f"invalid destination rank {dest}")
        size = wire_size(obj) if nbytes is None else nbytes
        rec = self._recorder
        if rec is not None:
            rec.comm("send", dest, size)
        if not self._fault:
            self._meter.record_send(self.rank, dest, size)
            self._transmit(dest, (tag, obj))
            return
        seq = self._send_seq.get(dest, 0)
        self._send_seq[dest] = seq + 1
        env_bytes = size + envelope_overhead(seq)
        self._meter.record_send(self.rank, dest, env_bytes)
        self._transmit(
            dest, (seq, tag, payload_checksum(obj), env_bytes, self._phase, obj)
        )

    def isend(
        self, obj: Any, dest: int, tag: int = 0, nbytes: Optional[int] = None
    ) -> Request:
        """Non-blocking send; completes eagerly (the network buffers unboundedly)."""
        self._post(obj, dest, tag, nbytes)
        return _SendRequest()

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive: post an ``irecv`` and wait for it."""
        return self.irecv(source, tag).wait()

    def irecv(self, source: int, tag: int = 0) -> Request:
        """Post a non-blocking receive; requests match messages in posting order."""
        if not 0 <= source < self.size:
            raise ValueError(f"invalid source rank {source}")
        request = self._request_type(self, source, tag)
        self._pending_recvs.setdefault(source, deque()).append(request)
        return request

    def sendrecv(self, obj: Any, peer: int, tag: int = 0, nbytes: Optional[int] = None) -> Any:
        """Symmetric exchange with ``peer`` (both sides must call this).

        Legal with ``peer == rank``, as ``MPI_Sendrecv`` is.
        """
        self._post(obj, peer, tag, nbytes)
        return self.recv(peer, tag)

    def _match_pending_recvs(self, source: int) -> None:
        """Assign arrived messages from ``source`` to requests in posting order.

        Both engines take arrivals in here, when the rank receives, so the
        fault pipeline runs at the same program point (and under the same
        receiver phase) on either.
        """
        pending = self._pending_recvs.get(source)
        if not pending:
            return
        inbox: Optional[Deque[Tuple[Any, ...]]] = self._arrivals(source)
        if self._fault:
            while inbox:
                self._arrive(source, *inbox.popleft())
            inbox = self._inbox.get(source)
        while pending and inbox:
            pending.popleft()._complete(*inbox.popleft())

    # ------------------------------------------------------------------ fault-mode receive path
    def _arrive(
        self,
        source: int,
        seq: int,
        tag: int,
        crc: int,
        env_bytes: int,
        sender_phase: str,
        payload: Any,
    ) -> None:
        """Take one envelope off the wire, applying the plan's message rules.

        The clean envelope enters the recovery buffer first, so a recovery
        pull always finds it.  The injector then decides its fate under the
        phase it was sent in; each channel is decided at its receiver in
        send order, so both engines replay one schedule.  Every arrival is
        one overtaking event: held envelopes tick after the current one was
        handled and before it may itself be penned.
        """
        env = Envelope(seq, tag, crc, payload)
        self._unacked.setdefault(source, {})[seq] = (env, env_bytes)
        action = (
            self._injector.on_send(source, self.rank, sender_phase)
            if source != self.rank
            else None
        )
        if action is None:
            self._accept(source, env)
        else:
            self._meter.count("faults_injected_per_pe", source)
            if action.kind == "duplicate":
                self._accept(source, env)
                # the duplicate costs wire bytes but is not origin volume
                self._meter.record_retransmit(
                    source, self.rank, env_bytes, phase=sender_phase
                )
                self._accept(source, env)
            elif action.kind == "corrupt":
                # tamper the envelope's seal; the clean copy stays buffered
                self._accept(source, Envelope(seq, tag, crc ^ action.mask, payload))
            # drop and delay withhold the envelope: recovery pulls it
        self._tick_delay(source)
        if action is not None and action.kind == "delay":
            self._delay_pens.setdefault(source, []).append(
                [action.delay_messages, env]
            )

    def _tick_delay(self, source: int) -> None:
        """Tick ``source``'s delay pen; accept envelopes fully overtaken."""
        pens = self._delay_pens.get(source)
        if not pens:
            return
        ripe: List[Envelope] = []
        remaining: List[List[Any]] = []
        for entry in pens:
            entry[0] -= 1
            if entry[0] <= 0:
                ripe.append(entry[1])
            else:
                remaining.append(entry)
        self._delay_pens[source] = remaining
        for env in ripe:
            self._accept(source, env)

    def _accept(self, source: int, env: Envelope) -> None:
        """Sequence one arrived envelope: discard stale, stash early, drain."""
        expected = self._expected.get(source, 0)
        if env.seq < expected:
            # duplicate of an already-delivered message: detected and dropped
            self._meter.count("faults_detected_per_pe", self.rank)
            return
        # stash (in-sequence or early) and let _drain deliver/recover; an
        # early arrival with a missing predecessor is the gap _drain spots
        self._ooo.setdefault(source, {})[env.seq] = env
        self._drain(source)

    def _drain(self, source: int) -> None:
        """Deliver in-sequence envelopes; recover gaps and corruption.

        A *gap* (the expected message absent while a successor is stashed)
        is proof of a drop: channels are FIFO, so the missing envelope
        arrived first and sits withheld in the recovery buffer; it is
        pulled immediately.  A CRC mismatch likewise triggers an immediate
        pull.
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
                meter.count("faults_detected_per_pe", self.rank)
                self._pull(source, expected, lost=False)
                continue
            if stash:
                # a successor arrived but the expected message did not:
                # evidence of a drop — pull a retransmit right away
                meter.count("faults_detected_per_pe", self.rank)
                self._pull(source, expected, lost=True)
                continue
            return

    def _deliver(self, source: int, env: Envelope) -> None:
        """Hand one verified, in-sequence envelope to the inbox (and ack it)."""
        self._expected[source] = env.seq + 1
        # the ack: the recovery buffer frees the slot
        self._unacked[source].pop(env.seq, None)
        self._inbox.setdefault(source, deque()).append((env.tag, env.payload))

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
        env, env_bytes = self._unacked[source][seq]
        budget = injector.plan.max_retransmits
        for _ in range(budget):
            meter.count("retries_per_pe", self.rank)
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
                meter.count("faults_injected_per_pe", source)
                meter.count("faults_detected_per_pe", self.rank)
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

    def _withheld(self, source: int) -> bool:
        """Whether the next envelope due from ``source`` arrived but was withheld.

        A drop or delay rule keeps an arrived envelope in the recovery
        buffer only; when it was the channel's last message no successor
        will ever reveal the gap.
        """
        return self._expected.get(source, 0) in self._unacked.get(source, ())

    def _pull_withheld(self, source: int) -> None:
        """Detect the withheld envelope from ``source`` as lost and pull it."""
        self._meter.count("faults_detected_per_pe", self.rank)
        self._pull(source, self._expected.get(source, 0), lost=True)
        self._drain(source)

    # ------------------------------------------------------------------ collectives
    def _meet(
        self, call: str, contribution: Any, root: Optional[int] = None, op: Any = None
    ) -> List[Any]:
        """One rendezvous of collective ``call``: every rank's contribution.

        Every collective meets here, so both engines check the SPMD contract
        in one place: each rank's board slot carries its call's signature
        (name, ``root``, reduction ``op``; a callable op by its
        ``__qualname__``), and every rank compares the whole board.  Ranks
        in different collectives raise :class:`SpmdError` naming each
        rank's call.  Signatures ride on the board, which is not metered.
        """
        if root is not None and not 0 <= root < self.size:
            raise ValueError(f"invalid root rank {root}")
        args = [] if root is None else [f"root={root}"]
        if op is not None:
            args.append(f"op={op.__qualname__ if callable(op) else op}")
        self._call = call = f"{call}({', '.join(args)})" if args else call
        board = self._board_exchange((call, contribution))
        step, self._steps = self._steps, self._steps + 1
        if any(theirs != call for theirs, _ in board):
            raise SpmdError(
                f"collective step {step}: "
                + ", ".join(f"rank {r} in {c}" for r, (c, _) in enumerate(board))
            )
        return [value for _, value in board]

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
        t0 = self._now()
        self._meet("barrier", None)
        self._meter.record_barrier_wait(self.rank, self._phase, self._now() - t0)
        if rec is not None:
            rec.end("barrier")

    def bcast(self, obj: Any, root: int = 0, nbytes: Optional[int] = None) -> Any:
        """Broadcast from ``root``; accounted as a binomial tree."""
        snapshot = self._meet("bcast", obj if self.rank == root else None, root=root)
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
        snapshot = self._meet("gather", obj, root=root)
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
        snapshot = self._meet("scatter", contribution, root=root)
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
        snapshot = self._meet("allgather", obj)
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

        snapshot = self._meet("alltoall", list(objs))
        received = [snapshot[src][self.rank] for src in range(self.size)]

        # one rank records the collective event with the bottleneck volume
        totals = self._meet("alltoall", my_total)
        if self.rank == 0:
            self._meter.record_collective(
                "alltoall", max(totals, default=0), self.size, self._phase
            )
        return received

    def reduce(self, value: Any, op: str = ReduceOp.SUM, root: int = 0) -> Any:
        """Reduce per-rank values at ``root``; ``None`` elsewhere."""
        snapshot = self._meet("reduce", value, root=root, op=op)
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
        snapshot = self._meet("allreduce", value, op=op)
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
    """Communicator of one rank of the cooperative thread engine."""

    def __init__(self, rank: int, state: _SharedState):
        super().__init__(
            rank,
            state.num_pes,
            state.meter,
            state.injector,
            state.config,
            recorder=state.recorders[rank] if state.recorders else None,
        )
        self._state = state

    def _fail(self, exc: BaseException) -> None:
        """Abort the run: every rank unwinds when it next runs."""
        self._state.fail(exc)

    def _now(self) -> float:
        """This rank's clock (:meth:`_SharedState.now`)."""
        return self._state.now(self.rank)

    def _board_exchange(self, contribution: Any) -> List[Any]:
        """One rendezvous: the last rank to arrive snapshots the board.

        Every rank leaves it at the latest arrival's clock.
        """
        st = self._state
        st.board[self.rank] = contribution
        st.arrived += 1
        st.arrival_clock = max(st.arrival_clock, st.now(self.rank))
        if st.arrived == self.size:
            st.snapshot, st.board, st.arrived = st.board, [None] * self.size, 0
            st.release_clock, st.arrival_clock = st.arrival_clock, 0.0
            st.collectives += 1
        else:
            step = st.collectives
            st.block(
                self.rank,
                lambda: st.collectives != step,
                f"collective step {step} ({self._call})",
            )
        st.catch_up(self.rank, st.release_clock)
        return list(st.snapshot)

    def _transmit(self, dest: int, body: Tuple[Any, ...]) -> None:
        """Queue the body on the ``(self, dest)`` channel, stamped with our clock."""
        st = self._state
        st.queues[(self.rank, dest)].append(body)
        st.stamps[(self.rank, dest)].append(st.now(self.rank))

    def _arrivals(self, source: int) -> Deque[Tuple[Any, ...]]:
        """The ``(source, self)`` channel itself."""
        return self._state.queues[(source, self.rank)]

    def _match_pending_recvs(self, source: int) -> None:
        """Match as the base class does; taking a message catches up to its send."""
        st = self._state
        queue, stamps = st.queues[(source, self.rank)], st.stamps[(source, self.rank)]
        super()._match_pending_recvs(source)
        while len(stamps) > len(queue):
            st.catch_up(self.rank, stamps.popleft())

    def _poll_missed(self, request: _RecvRequest) -> None:
        """Pass the baton on; recover a withheld envelope once nothing else can run.

        The poller stays runnable, so the scheduler never picks it to pull
        its withheld envelope: it pulls it itself when no other rank could
        take a turn (the rule :meth:`_await_message` follows).
        """
        source = request.source
        what = f"a message from rank {source} (tag {request.tag})"
        if self._state.yield_turn(self.rank, what) and self._fault and self._withheld(source):
            self._pull_withheld(source)

    def _await_message(self, request: _RecvRequest) -> None:
        """Let other ranks run until ``request``'s source sends again.

        In fault mode the scheduler may instead wake this rank to pull the
        envelope its recovery buffer withholds, once no rank can run.
        """
        source = request.source
        queue = self._state.queues[(source, self.rank)]
        withheld = (lambda: self._withheld(source)) if self._fault else None
        if self._state.block(
            self.rank,
            lambda: bool(queue),
            f"a message from rank {source} (tag {request.tag})",
            withheld,
        ):
            self._pull_withheld(source)


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
    """A reusable simulated machine: cooperative thread-per-rank SPMD execution.

    One engine owns the shared state of one simulated cluster (board,
    per-pair message deques, scheduler) and runs any number of SPMD programs
    on it, one after the other.  After a clean run the deques are
    **reused** — only the meter, board and scheduler are re-armed — so a
    long-lived :class:`repro.session.Cluster` does not rebuild ``p²``
    channels for every sort.  A failed run or one that leaves a message
    unreceived poisons the state, so the next run transparently rebuilds it.

    This class is also the **engine selection seam**: alternative backends
    implement the same surface (``__init__(num_pes, config=...,
    fault_plan=...)`` + :meth:`run`) and register under a name via
    :func:`register_engine`.  ``config=None`` means
    :meth:`RunConfig.from_env`.
    """

    #: registry name of this backend
    name = "threads"

    def __init__(
        self,
        num_pes: int,
        config: Optional[RunConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        trace_capacity: int = DEFAULT_CAPACITY,
    ):
        if num_pes <= 0:
            raise ValueError("num_pes must be positive")
        self.num_pes = num_pes
        #: the run configuration every rank sees as ``comm.config``
        self.config = RunConfig.from_env() if config is None else config
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
        # calls on the same engine serialise here (sharing one board and
        # one set of channels between two live programs would corrupt both)
        self._run_lock = threading.Lock()
        #: completed :meth:`run` calls (successful or not)
        self.runs_completed = 0
        #: runs that reused the previous run's shared state (machine reuse)
        self.state_reuses = 0

    def _acquire_state(self, meter: TrafficMeter) -> _SharedState:
        if self._state is not None and self._state.is_clean():
            self._state.reset(meter)
            self.state_reuses += 1
            return self._state
        return _SharedState(self.num_pes, meter, self.config, self._injector)

    def run(
        self,
        fn: Callable[..., Any],
        args_per_rank: Optional[Sequence[Tuple]] = None,
        common_args: Tuple = (),
        meter: Optional[TrafficMeter] = None,
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
            return self._run_locked(fn, args_per_rank, common_args, meter)

    def _run_locked(
        self,
        fn: Callable[..., Any],
        args_per_rank: Optional[Sequence[Tuple]],
        common_args: Tuple,
        meter: TrafficMeter,
    ) -> Tuple[List[Any], TrafficReport]:
        num_pes = self.num_pes
        state = self._acquire_state(meter)
        state.recorders = (
            [
                Recorder(rank, capacity=self.trace_capacity, clock=partial(state.now, rank))
                for rank in range(num_pes)
            ]
            if self.config.trace
            else None
        )
        recorders = state.recorders
        results: List[Any] = [None] * num_pes

        def runner(rank: int) -> None:
            state.batons[rank].acquire()
            state.offsets[rank] = time.monotonic() - state.start
            try:
                if state.errors:
                    return  # the run aborted before this rank's first turn
                rank_args = tuple(args_per_rank[rank]) if args_per_rank is not None else ()
                results[rank] = fn(ThreadComm(rank, state), *rank_args, *common_args)
            except SpmdError as exc:
                # secondary failures triggered by another rank's abort are noise
                if not state.errors:
                    state.errors.append(exc)
            except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
                state.fail(exc)
            finally:
                if recorders is not None:
                    recorders[rank].finish()
                state.finish(rank)

        threads = [
            threading.Thread(target=runner, args=(rank,), name=f"pe-{rank}", daemon=True)
            for rank in range(num_pes)
        ]
        for t in threads:
            t.start()
        # rank 0 takes the first turn
        state.start = time.monotonic()
        state.batons[0].release()
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


#: engine name -> factory (``factory(num_pes, config=..., fault_plan=...)``)
ENGINES: Dict[str, Callable[..., ThreadEngine]] = {"threads": ThreadEngine}


def register_engine(name: str, factory: Callable[..., Any]) -> None:
    """Register an execution backend under ``name`` (e.g. a future ``"mpi"``).

    ``factory(num_pes, config=..., fault_plan=...)`` must return an object
    with the :class:`ThreadEngine` surface (a ``run`` method with the same
    signature) whose communicators expose ``config`` (a
    :class:`~repro.config.RunConfig`).  ``fault_plan`` is a
    :class:`repro.faults.FaultPlan` or ``None``.
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
    The run configuration is :meth:`RunConfig.from_env` with every
    non-``None`` ``timeout``, ``engine`` and ``trace`` applied;
    ``fault_plan`` installs a :class:`repro.faults.FaultPlan` chaos
    schedule.
    """
    config = RunConfig.from_env().override(
        timeout=timeout, engine=engine, trace=trace
    )
    backend = get_engine(config.engine)(
        num_pes, config=config, fault_plan=fault_plan
    )
    try:
        return backend.run(
            fn, args_per_rank=args_per_rank, common_args=common_args, meter=meter
        )
    finally:
        shutdown = getattr(backend, "shutdown", None)
        if callable(shutdown):
            shutdown()
