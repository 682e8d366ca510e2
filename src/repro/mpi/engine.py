"""Cooperative thread-per-rank SPMD execution engine with a simulated communicator.

This is the substrate that stands in for the paper's MPI cluster.  Each
simulated PE runs the algorithm's per-rank function in its own Python
thread, but the threads take turns: exactly one rank holds the *baton* and
runs, and it passes the baton to the next runnable rank in cyclic order
only where it would block.  Ranks communicate through :class:`ThreadComm`,
which subclasses :class:`repro.mpi.comm.Communicator` on top of

* a shared "board" (one slot per rank) for collectives — one rendezvous
  per board exchange: each rank writes its slot, and the last to arrive
  takes the snapshot and wakes the others (valid because SPMD programs
  issue collectives in the same order on every rank),
* per-ordered-pair deques for point-to-point traffic.

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
from ..faults.errors import LostMessageError
from ..faults.inject import FaultInjector
from ..faults.plan import FaultPlan
from ..net.metrics import TrafficMeter, TrafficReport
from ..obs.recorder import DEFAULT_CAPACITY, Recorder
from ..obs.timeline import Timeline
from .comm import Communicator, SpmdError

__all__ = [
    "ThreadComm",
    "ThreadEngine",
    "SpmdError",
    "run_spmd",
    "ENGINES",
    "get_engine",
    "register_engine",
]


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
    def block(
        self,
        rank: int,
        ready: Callable[[], bool],
        what: str,
        withheld: Optional[Callable[[], bool]] = None,
    ) -> bool:
        """Hand the baton on to the next runnable rank until ``ready()`` holds.

        Returns ``True`` instead when no rank could run and ``rank`` was
        chosen to pull the envelope ``withheld()`` reports in its recovery
        buffer.  Raises :class:`SpmdError` once the run has aborted
        (``what`` names what ``rank`` waited for).
        """
        self.waits[rank] = (ready, what, withheld)
        try:
            while not ready():
                nxt = self._pick(rank)
                if nxt != rank:
                    left = time.monotonic()
                    self.batons[nxt].release()
                    self.batons[rank].acquire()
                    self.offsets[rank] += time.monotonic() - left
                if self.errors:
                    raise SpmdError(
                        f"rank {rank}: SPMD run aborted while waiting for {what}"
                    )
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


class ThreadComm(Communicator):
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

    def recv(self, source: int, tag: int = 0) -> Any:
        """Receive as the base class does; taking a message catches up to its send."""
        obj = super().recv(source, tag)
        self._catch_up(source)
        return obj

    def _catch_up(self, source: int) -> None:
        """Advance our clock to the send stamps of what we took from ``source``."""
        st = self._state
        queue, stamps = st.queues[(source, self.rank)], st.stamps[(source, self.rank)]
        while len(stamps) > len(queue):
            st.catch_up(self.rank, stamps.popleft())

    def _await_message(self, source: int, tag: int) -> None:
        """Let other ranks run until ``source`` sends again.

        Envelopes taken but withheld by the fault pipeline were still sent,
        so the clock catches up to them before it stands still.  In fault
        mode the scheduler may instead wake this rank to pull the envelope
        its recovery buffer withholds, once no rank can run.
        """
        self._catch_up(source)
        queue = self._state.queues[(source, self.rank)]
        withheld = (lambda: self._withheld(source)) if self._fault else None
        if self._state.block(
            self.rank,
            lambda: bool(queue),
            f"a message from rank {source} (tag {tag})",
            withheld,
        ):
            self._pull_withheld(source)


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
