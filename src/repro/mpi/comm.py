"""The ``Communicator`` interface of the simulated distributed machine.

The interface is a deliberately small subset of MPI, modelled on mpi4py's
lower-case (pickle-based) API because the distributed string sorting
algorithms only need

* point-to-point ``send`` / ``recv`` / ``sendrecv``,
* ``barrier``,
* rooted collectives ``bcast``, ``gather``, ``scatter``, ``reduce``,
* symmetric collectives ``allgather``, ``allreduce``, ``alltoall`` (the
  personalised, "v" flavour: one Python object per destination).

Algorithms are written as ordinary per-rank functions receiving a
``Communicator`` — the same SPMD style an mpi4py program would use — so a
future port to real MPI only has to swap the communicator implementation.

Every operation takes the actual payload *and* reports wire sizes to the
:class:`repro.net.metrics.TrafficMeter`, which is how the benchmark harness
obtains the exact "bytes sent per string" numbers of Figures 4 and 5.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

if TYPE_CHECKING:
    from ..config import RunConfig

__all__ = ["Communicator", "ReduceOp", "Request", "waitall"]


class Request:
    """Handle for a non-blocking operation (:meth:`Communicator.isend`/``irecv``).

    Mirrors MPI's request objects: :meth:`test` polls for completion without
    blocking, :meth:`wait` blocks until the operation finishes and returns the
    received object (``None`` for sends).  Use :func:`waitall` to drive
    several outstanding requests, e.g. the sends of one routed exchange
    round.
    """

    def test(self) -> bool:
        """Poll for completion; ``True`` once the operation has finished."""
        raise NotImplementedError

    def wait(self) -> Any:
        """Block until completion; returns the payload (``None`` for sends)."""
        raise NotImplementedError

    @property
    def done(self) -> bool:
        """Whether the operation has already completed (never blocks)."""
        return self.test()


def waitall(requests: Sequence[Request]) -> List[Any]:
    """Wait for every request; returns their payloads in request order."""
    return [r.wait() for r in requests]


class ReduceOp:
    """Named reduction operators for :meth:`Communicator.reduce`/``allreduce``."""

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
    """Abstract SPMD communicator; see the module docstring for the contract.

    The public methods are the surface.  The stubs here (``raise
    NotImplementedError``) are implemented by
    :class:`repro.mpi.engine.MeteredComm`, which adds the argument
    validation and traffic accounting shared by all backends.
    """

    # subclasses set these in __init__
    rank: int
    size: int
    #: the run configuration the rank programs read (exchange
    #: mode, topology, seals); the engine supplies it
    config: RunConfig

    # ------------------------------------------------------------------ identity
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} rank={self.rank} size={self.size}>"

    # ------------------------------------------------------------------ phases & work
    @contextmanager
    def phase(self, name: str):
        """Label all traffic issued inside the ``with`` block with ``name``."""
        previous = self.get_phase()
        self.set_phase(name)
        try:
            yield
        finally:
            self.set_phase(previous)

    def set_phase(self, name: str) -> None:
        """Set the current accounting phase."""
        raise NotImplementedError

    def get_phase(self) -> str:
        """The current accounting phase label."""
        raise NotImplementedError

    def record_local_work(self, chars: int, items: int = 0) -> None:
        """Report local character/string work for the modelled running time."""
        raise NotImplementedError

    def record_exchange_collective(self, nbytes: int, kind: str) -> None:
        """Record a routed exchange as its one collective cost-model event.

        Every rank passes the total bytes it sent to *other* ranks (the
        **origin** volume — routed deliveries account their forwarding
        overhead separately, see :meth:`record_route`); the backend agrees
        on the bottleneck volume and records a single event of ``kind``
        (``"alltoall-hypercube"``, ``"alltoall-grid"``, ...), exactly as the
        direct :meth:`alltoall` records its own.  Must be called by all
        ranks at the same program point (it may synchronise internally).
        """
        raise NotImplementedError

    def record_route(self, route: str, nbytes: int, forwarded: int) -> None:
        """Attribute one routed-delivery batch this rank sent.

        ``nbytes`` is the batch's full wire size (the send itself is
        recorded separately — this is attribution, not double counting) and
        ``forwarded`` the routing-overhead part: relayed payloads plus
        frame headers.  ``route`` labels the routing phase.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ point-to-point
    def send(self, obj: Any, dest: int, tag: int = 0, nbytes: Optional[int] = None) -> None:
        """Send ``obj`` to rank ``dest``.

        ``nbytes`` overrides the wire-size estimate (used when the payload is
        an already-accounted composite).
        """
        raise NotImplementedError

    def recv(self, source: int, tag: int = 0) -> Any:
        """Receive the next message from ``source`` with matching ``tag``."""
        raise NotImplementedError

    def sendrecv(
        self,
        obj: Any,
        peer: int,
        tag: int = 0,
        nbytes: Optional[int] = None,
    ) -> Any:
        """Exchange messages with ``peer`` (both sides must call this)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ non-blocking
    def isend(
        self, obj: Any, dest: int, tag: int = 0, nbytes: Optional[int] = None
    ) -> Request:
        """Non-blocking send; returns a :class:`Request`.

        Wire bytes are accounted immediately (the paper's volume metric does
        not depend on when the transfer completes).  The message is only
        guaranteed delivered once the request's :meth:`Request.wait` (or a
        matching ``waitall``) has returned.
        """
        raise NotImplementedError

    def irecv(self, source: int, tag: int = 0) -> Request:
        """Non-blocking receive; ``Request.wait()`` yields the payload.

        Multiple outstanding receives from the same source are matched in
        posting order, as MPI requires, regardless of the order their
        ``test``/``wait`` methods are driven in.
        """
        raise NotImplementedError

    @staticmethod
    def waitall(requests: Sequence[Request]) -> List[Any]:
        """Convenience alias for :func:`waitall` (request-order payloads)."""
        return waitall(requests)

    # ------------------------------------------------------------------ collectives
    def barrier(self) -> None:
        """Block until every rank has entered the barrier."""
        raise NotImplementedError

    def bcast(self, obj: Any, root: int = 0, nbytes: Optional[int] = None) -> Any:
        """Broadcast ``root``'s object to all ranks; returns it everywhere."""
        raise NotImplementedError

    def gather(self, obj: Any, root: int = 0, nbytes: Optional[int] = None) -> Optional[List[Any]]:
        """Gather one object per rank at ``root`` (rank order); None elsewhere."""
        raise NotImplementedError

    def scatter(self, objs: Optional[Sequence[Any]], root: int = 0) -> Any:
        """Deal ``root``'s per-rank objects out; returns this rank's share."""
        raise NotImplementedError

    def allgather(self, obj: Any, nbytes: Optional[int] = None) -> List[Any]:
        """Gather one object per rank at *every* rank (rank order)."""
        raise NotImplementedError

    def alltoall(
        self, objs: Sequence[Any], nbytes: Optional[Sequence[int]] = None
    ) -> List[Any]:
        """Personalised all-to-all: ``objs[d]`` goes to rank ``d``."""
        raise NotImplementedError

    def reduce(self, value: Any, op: str = ReduceOp.SUM, root: int = 0) -> Any:
        """Reduce per-rank values with ``op`` at ``root``; None elsewhere."""
        raise NotImplementedError

    def allreduce(self, value: Any, op: str = ReduceOp.SUM) -> Any:
        """Reduce per-rank values with ``op``; every rank gets the result."""
        raise NotImplementedError

    # ------------------------------------------------------------------ conveniences
    def is_root(self, root: int = 0) -> bool:
        """Whether this rank is ``root``."""
        return self.rank == root


RankFunction = Callable[..., Any]
