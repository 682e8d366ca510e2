"""The ``Communicator`` of the simulated distributed machine.

The surface is a deliberately small subset of MPI, modelled on mpi4py's
lower-case (pickle-based) API, cut to what the distributed string sorting
algorithms call:

* blocking point-to-point ``send`` / ``recv`` / ``sendrecv``,
* ``barrier`` and the rooted collectives ``bcast`` and ``gather``,
* the symmetric collectives ``allgather``, ``allreduce`` and ``alltoall``
  (the personalised, "v" flavour: one Python object per destination).

Algorithms are written as ordinary per-rank functions receiving a
``Communicator`` — the same SPMD style an mpi4py program would use — so a
future port to real MPI only has to swap the communicator implementation.

Every operation takes the actual payload *and* reports wire sizes to the
:class:`repro.net.metrics.TrafficMeter`, which is how the benchmark harness
obtains the exact "bytes sent per string" numbers of Figures 4 and 5.
:class:`Communicator` holds everything that must be bit-identical across
execution engines; an engine subclasses it and implements the transport
hooks (see the class docstring).
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from ..config import RunConfig
from ..faults.errors import (
    CorruptFrameError,
    FaultError,
    LostMessageError,
    RankCrashError,
)
from ..faults.inject import FaultInjector
from ..faults.wire import Envelope, envelope_overhead
from ..net.metrics import TrafficMeter
from ..obs.recorder import Recorder
from .serialization import payload_checksum, wire_size

__all__ = ["Communicator", "ReduceOp", "SpmdError"]


class SpmdError(RuntimeError):
    """Raised when a simulated SPMD run fails (rank exception or deadlock)."""


class ReduceOp:
    """Named reduction operators for :meth:`Communicator.allreduce`."""

    SUM = "sum"
    MIN = "min"
    MAX = "max"

    _FUNCS = {
        "sum": lambda xs: sum(xs),
        "min": lambda xs: min(xs),
        "max": lambda xs: max(xs),
    }

    @classmethod
    def apply(cls, op: str, values: Sequence[Any]) -> Any:
        """Reduce ``values`` with named op ``op`` (or a custom callable)."""
        if callable(op):
            # custom associative reduction function over the list of values
            return op(values)
        try:
            return cls._FUNCS[op](values)
        except KeyError:
            raise ValueError(f"unknown reduction op {op!r}") from None


class Communicator:
    """One rank's metered SPMD communicator.

    Everything that must be **bit-identical across execution engines** lives
    here: the accounting hooks, the collective algebra (which edges each
    collective charges to the meter), the SPMD checks (every rendezvous
    compares the ranks' collective signatures, :meth:`_meet`; a blocking
    send to one's own rank is refused), point-to-point framing and
    matching, and the fault-mode receive pipeline (injection on arrival,
    sequencing, CRC verification, gap detection, pull-based recovery).
    Concrete engines subclass it and provide only the *transport*: how
    payloads physically move between ranks and how a rank waits.

    Subclasses implement the hook surface:

    * :meth:`_fail` — abort the whole run with an exception;
    * :meth:`_board_exchange` — every rank contributes one object and
      observes all of them (every collective meets through it, in
      :meth:`_meet`);
    * :meth:`_transmit` — carry one point-to-point message body to ``dest``;
    * :meth:`_arrivals` — the bodies that have arrived from ``source``, in
      send order, as a deque the caller consumes;
    * :meth:`_await_message` — wait until more may have arrived for a
      blocked :meth:`recv` (or raise if it never can).

    :meth:`_now`, the clock barrier waits are metered on, is wall time
    unless an engine overrides it.

    The thread engine (:class:`repro.mpi.engine.ThreadComm`) and the
    multiprocessing engine (:class:`repro.mpi.procengine.ProcComm`) are the
    two in-tree implementations; the conformance suite in
    ``tests/engine_conformance.py`` is the executable contract for
    third-party ones.
    """

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
        #: the run configuration the rank programs read (exchange mode,
        #: topology, seals); the engine supplies it
        self.config = config
        #: the meter this rank records into, and the installed fault injector
        self._meter = meter
        self._injector = injector
        self._phase = "unlabelled"
        #: this rank's trace recorder, or ``None`` with tracing off — every
        #: instrumentation site is a single ``is None`` test, so the traced
        #: path costs nothing when disarmed (pinned by BENCH_PR10)
        self._recorder = recorder
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
            # yet received, next sequence number to deliver, early arrivals,
            # the recovery buffer (seq -> (clean envelope, wire bytes incl.
            # framing)) and the delay pen ([arrivals still to overtake,
            # held envelope])
            self._inbox: Dict[int, Deque[Tuple[Any, ...]]] = {}
            self._expected: Dict[int, int] = {}
            self._ooo: Dict[int, Dict[int, Envelope]] = {}
            self._unacked: Dict[int, Dict[int, Tuple[Envelope, int]]] = {}
            self._delay_pens: Dict[int, List[List[Any]]] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} rank={self.rank} size={self.size}>"

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

    def _await_message(self, source: int, tag: int) -> None:
        """Wait until more may have arrived from ``source`` (engine hook)."""
        raise NotImplementedError

    def _now(self) -> float:
        """This rank's clock for metered waits, in seconds."""
        return time.monotonic()

    # ------------------------------------------------------------------ phases & accounting
    @contextmanager
    def phase(self, name: str):
        """Label all traffic issued inside the ``with`` block with ``name``."""
        previous = self._phase
        self.set_phase(name)
        try:
            yield
        finally:
            self.set_phase(previous)

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

    def record_local_work(self, chars: int, items: int = 0) -> None:
        """Report local character/string work for the modelled running time."""
        self._meter.record_local_work(self.rank, chars, items)

    def record_exchange_collective(self, nbytes: int, kind: str) -> None:
        """Record a routed exchange as its one collective cost-model event.

        Every rank passes the total bytes it sent to *other* ranks (the
        **origin** volume — routed deliveries account their forwarding
        overhead separately, see :meth:`record_route`); the ranks agree on
        the bottleneck volume exactly like :meth:`alltoall` does (a board
        exchange moves no accounted bytes), and rank 0 records a single
        event of ``kind`` (``"alltoall-hypercube"``, ``"alltoall-grid"``,
        ...).  Must be called by all ranks at the same program point.
        """
        totals = self._meet("record_exchange_collective", int(nbytes))
        if self.rank == 0:
            self._meter.record_collective(kind, max(totals), self.size, self._phase)

    def record_route(self, route: str, nbytes: int, forwarded: int) -> None:
        """Attribute one routed-delivery batch this rank sent.

        ``nbytes`` is the batch's full wire size (the send itself is
        recorded separately — this is attribution, not double counting) and
        ``forwarded`` the routing-overhead part: relayed payloads plus
        frame headers.  ``route`` labels the routing phase.
        """
        self._meter.record_route(self.rank, route, nbytes, forwarded)

    # ------------------------------------------------------------------ point-to-point
    def send(self, obj: Any, dest: int, tag: int = 0, nbytes: Optional[int] = None) -> None:
        """Send ``obj`` to ``dest`` and account its wire size.

        ``nbytes`` overrides the wire-size estimate (used when the payload is
        an already-accounted composite).  Sends are eager: the network
        buffers without bound, so a send never waits for its receive.

        With a fault plan installed the message travels inside an
        :class:`~repro.faults.wire.Envelope` (sequence number + payload
        CRC32, charged on the wire) stamped with the sender's phase, and the
        plan's message rules strike it on arrival (:meth:`_arrive`); without
        one, this is the zero-overhead baseline path.

        A blocking send to one's own rank raises :class:`SpmdError`: MPI
        may refuse to buffer a standard-mode send, so such a program is not
        portable (a ``sendrecv`` with oneself is legal).
        """
        if dest == self.rank:
            raise SpmdError(
                f"rank {self.rank}: blocking send to its own rank (tag {tag}); "
                "use sendrecv"
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

    def recv(self, source: int, tag: int = 0) -> Any:
        """Receive the next message from ``source``; it must carry ``tag``.

        Arrivals are taken here, when the rank receives, so the fault
        pipeline runs at the same program point (and under the same
        receiver phase) on either engine.  Messages on one channel arrive
        in send order; a next message with another tag raises
        :class:`SpmdError`, since the two ranks' schedules disagree.
        """
        if not 0 <= source < self.size:
            raise ValueError(f"invalid source rank {source}")
        while True:
            inbox = self._arrivals(source)
            if self._fault:
                while inbox:
                    self._arrive(source, *inbox.popleft())
                inbox = self._inbox.get(source)
            if inbox:
                got_tag, obj = inbox.popleft()
                if got_tag != tag:
                    raise SpmdError(
                        f"rank {self.rank}: tag mismatch receiving from "
                        f"{source}: expected {tag}, got {got_tag} "
                        "(SPMD ordering violated)"
                    )
                return obj
            self._await_message(source, tag)

    def sendrecv(self, obj: Any, peer: int, tag: int = 0, nbytes: Optional[int] = None) -> Any:
        """Exchange messages with ``peer`` (both sides must call this).

        Legal with ``peer == rank``, as ``MPI_Sendrecv`` is.
        """
        self._post(obj, peer, tag, nbytes)
        return self.recv(peer, tag)

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
        """Broadcast ``root``'s object to all ranks; accounted as a binomial tree."""
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
        """Gather one object per rank at ``root`` (rank order); None elsewhere."""
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

    def allgather(self, obj: Any, nbytes: Optional[int] = None) -> List[Any]:
        """Gather one object per rank at *every* rank; ring/gossip accounting."""
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
        """Personalised all-to-all: ``objs[d]`` goes to rank ``d``.

        Returns the received objects in source order.
        """
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

    def allreduce(self, value: Any, op: str = ReduceOp.SUM) -> Any:
        """Reduce per-rank values with ``op``; every rank gets the result."""
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

    # ------------------------------------------------------------------ conveniences
    def is_root(self, root: int = 0) -> bool:
        """Whether this rank is ``root``."""
        return self.rank == root


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
