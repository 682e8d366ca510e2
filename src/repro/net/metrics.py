"""Per-PE communication and work accounting.

Every simulated communicator feeds a :class:`TrafficMeter`, a lock around
one :class:`TrafficReport`.  The report keeps every count — bytes sent and
received (exact wire sizes, see :mod:`repro.mpi.serialization`), messages,
characters inspected by the local sorting/merging steps, routed-delivery
attribution (:mod:`repro.net.router`: forwarded bytes per PE and bytes per
route phase), barrier waits — in one
``(counter, label)`` table.  Each counter is declared once, as a
:class:`Counter` attribute of the report carrying its label kind and the
Prometheus family :attr:`TrafficReport.metrics` exports it under.
Next to the table the report logs collective operations (kind, per-PE
bottleneck bytes) for the alpha-beta formulas of
:class:`repro.net.cost_model.MachineModel`.

The meter is written to from many rank threads concurrently; a single lock
protects all mutation (the operations are tiny compared to the work they
account for).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .cost_model import DEFAULT_MACHINE, MachineModel

__all__ = [
    "COUNTERS",
    "CollectiveEvent",
    "Counter",
    "TrafficMeter",
    "TrafficReport",
]


@dataclass
class CollectiveEvent:
    """One collective operation as seen by the cost model."""

    kind: str          # a collective's name, or "alltoall-hypercube"
    phase: str
    max_bytes_per_pe: int
    num_pes: int


class Counter:
    """One counter of :class:`TrafficReport` and the read-only view of it.

    ``label`` names what the counter is keyed by: ``"pe"`` (a rank, read
    back as a per-PE list), or ``"stage"`` or ``"route"`` (a phase name,
    read back as a dict).  ``family`` and
    ``help`` are the Prometheus family the metrics snapshot exports it as.
    """

    def __init__(self, label: str, family: str, help: str):
        self.label = label
        self.family = family
        self.help = help
        self.__doc__ = help
        self.name = ""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, report: Optional["TrafficReport"], owner: Any = None) -> Any:
        if report is None:
            return self
        counts = report.counts
        if self.label == "pe":
            return [counts.get((self.name, pe), 0) for pe in range(report.num_pes)]
        return {key: v for (name, key), v in counts.items() if name == self.name}

    def __set__(self, report: "TrafficReport", value: Any) -> None:
        raise AttributeError(
            f"{self.name} is a read-only view; record through a TrafficMeter"
        )


@dataclass
class TrafficReport:
    """Aggregated view of a finished run (returned by :meth:`TrafficMeter.report`).

    ``counts`` maps ``(counter, label)`` to a value, the label being a rank,
    a phase or a route; the :class:`Counter` attributes below read
    it back under their historical names.
    """

    num_pes: int
    counts: Dict[Tuple[str, Any], float] = field(default_factory=dict)
    collectives: List[CollectiveEvent] = field(default_factory=list)
    #: name of the execution engine that produced this report ("" when the
    #: meter was driven outside an engine; "mixed" after folding reports
    #: from different engines)
    engine: str = ""
    #: the observability attachment (:class:`repro.obs.timeline.Timeline`),
    #: populated only when the run traced (``Cluster(trace=True)`` /
    #: ``REPRO_TRACE``); ``None`` otherwise so the accounting path never
    #: depends on :mod:`repro.obs`.  It folds through ``Timeline.merged``.
    timeline: Optional[Any] = None

    bytes_sent_per_pe = Counter("pe", "repro_bytes_sent_total", "Wire bytes sent, per PE.")
    bytes_received_per_pe = Counter(
        "pe", "repro_bytes_received_total", "Wire bytes received, per PE."
    )
    messages_per_pe = Counter("pe", "repro_messages_total", "Point-to-point messages sent, per PE.")
    phase_bytes = Counter("stage", "repro_stage_bytes_total", "Wire bytes sent, per stage.")
    chars_inspected_per_pe = Counter(
        "pe", "repro_chars_inspected_total",
        "Characters inspected by local sorting and merging, per PE.",
    )
    items_processed_per_pe = Counter(
        "pe", "repro_items_processed_total",
        "Strings handled by local sorting and merging, per PE.",
    )
    # routed multi-level delivery: bytes each PE sent on behalf of *other*
    # origins (relay payloads + frame headers), and bytes per route phase
    # (e.g. "hypercube-dim0"); both zero under direct delivery
    forwarded_bytes_per_pe = Counter(
        "pe", "repro_forwarded_bytes_total", "Routing-overhead bytes relayed, per PE."
    )
    route_bytes = Counter(
        "route", "repro_route_bytes_total", "Routed-delivery wire bytes, per route phase."
    )
    # seconds ranks spent blocked in barrier(), per surrounding phase — its
    # own account so stragglers never inflate merge/exchange timings
    barrier_wait_seconds = Counter(
        "stage", "repro_barrier_wait_seconds_total",
        "Seconds ranks spent blocked in barrier(), per surrounding stage.",
    )
    # bytes the execution engine's data plane *actually moved* on behalf of
    # each PE's sends (pipe frames plus shared-memory payload bytes).  Zero
    # under the thread engine, which moves object references; the
    # conformance suite reconciles it against the simulated wire accounting
    transported_bytes_per_pe = Counter(
        "pe", "repro_transported_bytes_total",
        "Bytes the engine's data plane moved, per PE.",
    )

    # -- the table -----------------------------------------------------------------
    def add(self, name: str, label: Any, value: float) -> None:
        """Add ``value`` to counter ``name`` at ``label`` (rank, phase or route)."""
        if name not in _NAMES:
            raise KeyError(f"unknown counter {name!r}")
        key = (name, label)
        self.counts[key] = self.counts.get(key, 0) + value

    def total(self, name: str) -> float:
        """Counter ``name`` summed over its labels."""
        return sum(v for (n, _), v in self.counts.items() if n == name)

    def series(self) -> Iterator[Tuple[Counter, List[Tuple[Any, float]]]]:
        """Every counter with its ``(label, value)`` samples, in table order.

        Per-PE counters list every rank (zeros included), stage and route
        counters their labels sorted — the input of
        :func:`repro.obs.derive.run_metrics`.
        """
        for counter in COUNTERS:
            values = getattr(self, counter.name)
            if counter.label == "pe":
                yield counter, list(enumerate(values))
            else:
                yield counter, sorted(values.items())

    def fold(self, other: "TrafficReport") -> None:
        """Add ``other`` into this report **in place**.

        The one definition of the report-merge contract: counts add per
        ``(counter, label)`` (exact sums) and collective events concatenate
        (so the cost model charges every run's collectives).  Timelines
        fold through ``Timeline.merged`` (concatenated end-to-end), and
        :attr:`metrics` renders from the folded counts and timeline.
        ``other`` is never mutated — a first fold aliases its timeline,
        later folds build a fresh merged one.
        """
        if other.num_pes != self.num_pes:
            raise ValueError(
                "cannot merge traffic reports from machines of different sizes: "
                f"{sorted({self.num_pes, other.num_pes})}"
            )
        for key, value in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + value
        self.collectives.extend(other.collectives)
        if other.timeline is not None:
            self.timeline = (
                other.timeline
                if self.timeline is None
                else self.timeline.merged(other.timeline)
            )
        # engine provenance: first tagged report wins; folding reports
        # produced by different engines yields the explicit marker "mixed"
        if other.engine:
            if not self.engine:
                self.engine = other.engine
            elif self.engine != other.engine:
                self.engine = "mixed"

    def merged(self, other: "TrafficReport") -> "TrafficReport":
        """A fresh report of ``self`` folded with ``other`` (inputs unmutated)."""
        out = TrafficReport(self.num_pes)
        out.fold(self)
        out.fold(other)
        return out

    @property
    def metrics(self) -> Optional[Any]:
        """The :class:`repro.obs.registry.MetricsSnapshot` of a traced report.

        Rendered on each read by :func:`repro.obs.derive.run_metrics` from
        :meth:`series` and :attr:`timeline` (``None`` when untraced), so a
        folded report renders from its folded counts and timeline.
        """
        if self.timeline is None:
            return None
        from ..obs.derive import run_metrics

        return run_metrics(self)

    # -- aggregate helpers ---------------------------------------------------------
    @property
    def total_bytes_sent(self) -> int:
        """Bytes sent summed over all PEs (origin volume + routing overhead)."""
        return self.total("bytes_sent_per_pe")

    @property
    def forwarded_bytes(self) -> int:
        """Routing overhead summed over all PEs (relay payloads + frame headers).

        Zero under direct delivery; under multi-level delivery this is the
        measured volume inflation the cost model's indirect formulas assume.
        """
        return self.total("forwarded_bytes_per_pe")

    @property
    def origin_bytes_sent(self) -> int:
        """The paper's communication-volume metric: bytes injected at origins.

        Every bucket leaves its origin exactly once regardless of delivery
        strategy, so this equals ``total_bytes_sent`` under direct delivery
        and is **bit-identical across exchange topologies** (pinned by
        ``tests/test_exchange_topologies.py``).
        """
        return self.total_bytes_sent - self.forwarded_bytes

    @property
    def transported_bytes(self) -> int:
        """Bytes the engine's data plane really moved, summed over all PEs.

        The physical counterpart of the simulated :attr:`total_bytes_sent`:
        pipe frames plus shared-memory payloads for the processes engine,
        0 for the thread engine (references move for free).
        """
        return self.total("transported_bytes_per_pe")

    def bytes_per_string(self, num_strings: int) -> float:
        """The paper's headline metric: total bytes sent / total input strings."""
        if num_strings == 0:
            return 0.0
        return self.total_bytes_sent / num_strings

    def modeled_comm_time(self, machine: MachineModel = DEFAULT_MACHINE) -> float:
        """Alpha-beta communication time implied by the recorded collectives."""
        total = 0.0
        for ev in self.collectives:
            if ev.kind == "bcast":
                total += machine.broadcast(ev.max_bytes_per_pe, ev.num_pes)
            elif ev.kind == "allreduce":
                total += machine.reduction(ev.max_bytes_per_pe, ev.num_pes)
            elif ev.kind == "gather":
                total += machine.gather(ev.max_bytes_per_pe, ev.num_pes)
            elif ev.kind == "allgather":
                total += machine.allgather(ev.max_bytes_per_pe, ev.num_pes)
            elif ev.kind == "alltoall":
                total += machine.alltoall_direct(ev.max_bytes_per_pe, ev.num_pes)
            elif ev.kind == "alltoall-hypercube":
                total += machine.alltoall_hypercube(ev.max_bytes_per_pe, ev.num_pes)
            elif ev.kind == "barrier":
                total += machine.broadcast(0, ev.num_pes)
            else:  # unknown kinds are charged like a direct all-to-all
                total += machine.alltoall_direct(ev.max_bytes_per_pe, ev.num_pes)
        return total

    def modeled_local_time(self, machine: MachineModel = DEFAULT_MACHINE) -> float:
        """Modelled bottleneck local-work time (max over PEs)."""
        per_pe = [
            machine.local_work(c, i)
            for c, i in zip(self.chars_inspected_per_pe, self.items_processed_per_pe)
        ]
        return max(per_pe, default=0.0)

    def modeled_total_time(self, machine: MachineModel = DEFAULT_MACHINE) -> float:
        """Modelled total running time = local work bottleneck + communication."""
        return self.modeled_local_time(machine) + self.modeled_comm_time(machine)


#: the report's counters in declaration order: the one list of them
COUNTERS: Tuple[Counter, ...] = tuple(
    v for v in vars(TrafficReport).values() if isinstance(v, Counter)
)
_NAMES = frozenset(c.name for c in COUNTERS)


class TrafficMeter:
    """Thread-safe collector of one run's statistics: a lock around a report."""

    def __init__(self, num_pes: int):
        self.num_pes = num_pes
        #: engine provenance stamped onto :meth:`report` snapshots; the
        #: execution engine sets this at the start of a run
        self.engine = ""
        self._lock = threading.Lock()
        self._report = TrafficReport(num_pes)
        self._phases: Dict[int, str] = {}

    # ------------------------------------------------------------------ phases
    def set_phase(self, rank: int, phase: str) -> None:
        """Label subsequent traffic of ``rank`` with ``phase``."""
        with self._lock:
            self._phases[rank] = phase

    # ------------------------------------------------------------------ recording
    def record_send(
        self, src: int, dst: int, nbytes: int, phase: Optional[str] = None
    ) -> None:
        """Record ``nbytes`` travelling from ``src`` to ``dst``.

        Messages a PE "sends to itself" inside a collective are free, exactly
        like the paper's accounting of communication volume.

        ``phase`` pins the phase label explicitly; without it the *current*
        phase of ``src`` is used, which is only deterministic when the
        recording thread is ``src`` itself.  Collectives that account edges
        on behalf of other ranks (e.g. the broadcast tree) must pass the
        initiating rank's phase, otherwise attribution races with the other
        ranks' progress.
        """
        if src == dst:
            return
        with self._lock:
            report = self._report
            report.add("bytes_sent_per_pe", src, nbytes)
            report.add("bytes_received_per_pe", dst, nbytes)
            report.add("messages_per_pe", src, 1)
            if phase is None:
                phase = self._phases.get(src, "unlabelled")
            report.add("phase_bytes", phase, nbytes)

    def record_local_work(self, rank: int, chars: int, items: int = 0) -> None:
        """Charge ``rank`` with ``chars`` inspected characters / ``items`` strings."""
        with self._lock:
            self._report.add("chars_inspected_per_pe", rank, chars)
            self._report.add("items_processed_per_pe", rank, items)

    def record_barrier_wait(self, rank: int, phase: str, seconds: float) -> None:
        """Record ``seconds`` ``rank`` spent blocked in ``barrier()`` during ``phase``.

        Kept out of the phase's implicit wall-clock account: barrier wait is
        straggler time, and charging it to whatever phase surrounds the
        barrier would inflate merge/exchange timings (the attribution fix of
        the observability layer; ``tests/test_obs_trace.py`` pins the split).
        """
        with self._lock:
            self._report.add("barrier_wait_seconds", phase, max(0.0, seconds))

    def record_route(
        self, rank: int, route: str, nbytes: int, forwarded: int
    ) -> None:
        """Attribute one routed-delivery batch sent by ``rank``.

        ``nbytes`` is the batch's full wire size (already recorded as a
        normal send by the communicator — this call only *attributes*, it
        never double-counts), ``forwarded`` the part that is routing
        overhead: relayed payloads plus frame headers.  ``route`` labels the
        routing phase (e.g. ``"hypercube-dim1"``, ``"hypercube-fallback"``).
        """
        with self._lock:
            self._report.add("forwarded_bytes_per_pe", rank, forwarded)
            self._report.add("route_bytes", route, nbytes)

    def count(self, name: str, rank: int, value: int = 1) -> None:
        """Add ``value`` to the per-PE counter ``name`` of ``rank``.

        For the counters with nothing to derive: the bytes the engine's
        data plane physically moved (pipes + shared memory; the thread
        engine moves references and never counts them).
        """
        with self._lock:
            self._report.add(name, rank, value)

    def record_collective(
        self,
        kind: str,
        max_bytes_per_pe: int,
        num_pes: int,
        phase: Optional[str] = None,
    ) -> None:
        """Append one collective event for the cost model (see CollectiveEvent)."""
        with self._lock:
            self._report.collectives.append(
                CollectiveEvent(
                    kind=kind,
                    phase=phase if phase is not None else "unlabelled",
                    max_bytes_per_pe=max_bytes_per_pe,
                    num_pes=num_pes,
                )
            )

    def fold(self, report: TrafficReport) -> None:
        """Fold a finished ``report`` into this live meter.

        The processes engine gives every rank worker its own full-size
        meter and folds the per-worker snapshots into the caller's meter
        here; addition is exact, so the result is bit-identical to what one
        shared meter would have collected.
        """
        with self._lock:
            self._report.fold(report)

    # ------------------------------------------------------------------ results
    def report(self) -> TrafficReport:
        """Snapshot all counters into a fresh :class:`TrafficReport`."""
        snapshot = TrafficReport(self.num_pes, engine=self.engine)
        with self._lock:
            snapshot.fold(self._report)
        return snapshot
