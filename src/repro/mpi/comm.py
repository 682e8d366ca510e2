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
:class:`repro.net.metrics.TrafficMeter`, which is how the figure table
(:mod:`repro.figures`) obtains the exact "bytes sent per string" numbers of Figures 4 and 5.
:class:`Communicator` holds everything that must be bit-identical across
execution engines; an engine subclasses it and implements the transport
hooks (see the class docstring).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Deque, List, Optional, Sequence, Tuple

from ..config import RunConfig
from ..net.metrics import TrafficMeter
from ..obs.recorder import Recorder
from .serialization import wire_size

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
    send to one's own rank is refused) and point-to-point matching.
    Concrete engines subclass it and provide only the *transport*: how
    payloads physically move between ranks and how a rank waits.

    Subclasses implement the hook surface:

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
        config: RunConfig,
        recorder: Optional[Recorder] = None,
    ):
        self.rank = rank
        self.size = size
        #: the run configuration the rank programs read (the exchange
        #: topology); the engine supplies it
        self.config = config
        #: the meter this rank records into
        self._meter = meter
        self._phase = "unlabelled"
        #: this rank's trace recorder, or ``None`` with tracing off — every
        #: instrumentation site is a single ``is None`` test, so the traced
        #: path costs nothing when disarmed (pinned by BENCH_PR10)
        self._recorder = recorder
        #: rendezvous this rank has met (the step number of the next), and
        #: the signature of the latest (``bcast(root=0)``; :meth:`_meet`)
        self._steps = 0
        self._call = ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} rank={self.rank} size={self.size}>"

    # ------------------------------------------------------------------ engine hooks
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
        """Label this rank's subsequent traffic with ``name``."""
        self._phase = name
        self._meter.set_phase(self.rank, name)
        rec = self._recorder
        if rec is not None:
            rec.phase(name)

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
        event of ``kind`` (``"alltoall-hypercube"``, or ``"alltoall"`` for
        the fallback).  Must be called by all ranks at the same program point.
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
        self._meter.record_send(self.rank, dest, size)
        self._transmit(dest, (tag, obj))

    def recv(self, source: int, tag: int = 0) -> Any:
        """Receive the next message from ``source``; it must carry ``tag``.

        Messages on one channel arrive in send order; a next message with
        another tag raises :class:`SpmdError`, since the two ranks'
        schedules disagree.
        """
        if not 0 <= source < self.size:
            raise ValueError(f"invalid source rank {source}")
        while True:
            inbox = self._arrivals(source)
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
