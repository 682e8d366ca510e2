"""Per-PE communication and work accounting.

Every simulated communicator feeds a :class:`TrafficMeter`.  The meter keeps,
per PE and per named phase,

* bytes sent and received (exact wire sizes, see
  :mod:`repro.mpi.serialization`),
* number of messages,
* a log of collective operations (kind, per-PE bottleneck bytes) so the
  benchmark harness can apply the alpha-beta formulas of
  :class:`repro.net.cost_model.MachineModel`,
* character-inspection counts contributed by the local sorting/merging steps,
* routed-delivery attribution (:mod:`repro.net.router`): per-PE *forwarded*
  bytes — relay payloads plus frame headers, charged on top of the origin
  volume — and per-route-phase byte totals, so the ``log p`` volume
  inflation of multi-level delivery is measured, not assumed.

The meter is written to from many rank threads concurrently; a single lock
protects all mutation (the operations are tiny compared to the work they
account for).
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .cost_model import DEFAULT_MACHINE, MachineModel

__all__ = [
    "CollectiveEvent",
    "TrafficMeter",
    "TrafficReport",
    "zero_traffic_report",
    "fold_traffic_report",
    "merge_traffic_reports",
]


@dataclass
class CollectiveEvent:
    """One collective operation as seen by the cost model."""

    kind: str          # "bcast", "gather", "allgather", "alltoall", "reduce", "barrier", "p2p-round"
    phase: str
    max_bytes_per_pe: int
    num_pes: int


@dataclass
class TrafficReport:
    """Aggregated view of a finished run (returned by :meth:`TrafficMeter.report`)."""

    num_pes: int
    bytes_sent_per_pe: List[int]
    bytes_received_per_pe: List[int]
    messages_per_pe: List[int]
    phase_bytes: Dict[str, int]
    chars_inspected_per_pe: List[int]
    items_processed_per_pe: List[int]
    collectives: List[CollectiveEvent] = field(default_factory=list)
    # routed multi-level delivery: bytes each PE sent on behalf of *other*
    # origins (relay payloads + frame headers), and bytes per route phase
    # (e.g. "hypercube-dim0", "grid-rows"); both zero under direct delivery
    forwarded_bytes_per_pe: List[int] = field(default_factory=list)
    route_bytes: Dict[str, int] = field(default_factory=dict)
    # fault-mode counters (repro.faults): per-PE injected faults (charged to
    # the struck rank), detected faults and recovery retries (charged to the
    # detecting receiver), and retransmitted wire bytes (recovery traffic,
    # excluded from origin volume); all zero outside fault mode
    faults_injected_per_pe: List[int] = field(default_factory=list)
    faults_detected_per_pe: List[int] = field(default_factory=list)
    retries_per_pe: List[int] = field(default_factory=list)
    retransmitted_bytes_per_pe: List[int] = field(default_factory=list)
    # seconds ranks spent blocked in barrier(), per surrounding phase — its
    # own account so stragglers never inflate merge/exchange timings (the
    # phase-attribution fix; folds additively like the byte dicts)
    barrier_wait_seconds: Dict[str, float] = field(default_factory=dict)
    # bytes the execution engine's data plane *actually moved* on behalf of
    # each PE's sends (pipe frames plus shared-memory payload bytes).  Zero
    # under the thread engine, which moves object references; the processes
    # engine fills it in, and the conformance suite reconciles it against
    # the simulated wire accounting (real transport >= 0 whenever the
    # simulated counters are non-zero)
    transported_bytes_per_pe: List[int] = field(default_factory=list)
    #: whole-job re-runs a session performed after failed attempts
    #: (``Cluster.sort(..., max_retries=N)``); folds additively
    job_retries: int = 0
    #: name of the execution engine that produced this report ("" when the
    #: meter was driven outside an engine; "mixed" after folding reports
    #: from different engines)
    engine: str = ""
    #: observability attachments (:class:`repro.obs.timeline.Timeline` /
    #: :class:`repro.obs.registry.MetricsSnapshot`), populated only when the
    #: run traced (``Cluster(trace=True)`` / ``REPRO_TRACE``); ``None``
    #: otherwise so the accounting path never depends on :mod:`repro.obs`.
    #: Both obey the fold contract via their own ``merged`` methods.
    timeline: Optional[Any] = None
    metrics: Optional[Any] = None

    # -- aggregate helpers ---------------------------------------------------------
    @property
    def total_bytes_sent(self) -> int:
        """Bytes sent summed over all PEs (origin volume + routing overhead)."""
        return sum(self.bytes_sent_per_pe)

    @property
    def forwarded_bytes(self) -> int:
        """Routing overhead summed over all PEs (relay payloads + frame headers).

        Zero under direct delivery; under multi-level delivery this is the
        measured volume inflation the cost model's indirect formulas assume.
        """
        return sum(self.forwarded_bytes_per_pe)

    @property
    def origin_bytes_sent(self) -> int:
        """The paper's communication-volume metric: bytes injected at origins.

        Every bucket leaves its origin exactly once regardless of delivery
        strategy, so this equals ``total_bytes_sent`` under direct delivery
        and is **bit-identical across exchange topologies** (pinned by
        ``tests/test_exchange_topologies.py``).  Recovery traffic
        (retransmits, injected duplicates) is likewise excluded: a recovered
        chaos run reports the same origin volume as its fault-free baseline.
        """
        return (
            self.total_bytes_sent - self.forwarded_bytes - self.retransmitted_bytes
        )

    @property
    def faults_injected(self) -> int:
        """Faults injected by the active fault plan, summed over all PEs."""
        return sum(self.faults_injected_per_pe)

    @property
    def faults_detected(self) -> int:
        """Detected fault events (CRC mismatches, sequence gaps, duplicates,
        crashes), summed over all PEs."""
        return sum(self.faults_detected_per_pe)

    @property
    def retries(self) -> int:
        """Recovery attempts: per-message retransmit pulls summed over all
        PEs, plus whole-job re-runs (:attr:`job_retries`)."""
        return sum(self.retries_per_pe) + self.job_retries

    @property
    def retransmitted_bytes(self) -> int:
        """Wire bytes of recovery traffic (retransmits and duplicates).

        Counted inside :attr:`total_bytes_sent` but excluded from
        :attr:`origin_bytes_sent` — a retransmitted bucket still left its
        origin exactly once.
        """
        return sum(self.retransmitted_bytes_per_pe)

    @property
    def transported_bytes(self) -> int:
        """Bytes the engine's data plane really moved, summed over all PEs.

        The physical counterpart of the simulated :attr:`total_bytes_sent`:
        pipe frames plus shared-memory payloads for the processes engine,
        0 for the thread engine (references move for free).
        """
        return sum(self.transported_bytes_per_pe)

    @property
    def max_bytes_sent(self) -> int:
        """Bottleneck PE: the maximum bytes any single PE sent."""
        return max(self.bytes_sent_per_pe, default=0)

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
            elif ev.kind in ("reduce", "allreduce", "scan"):
                total += machine.reduction(ev.max_bytes_per_pe, ev.num_pes)
            elif ev.kind in ("gather", "scatter"):
                total += machine.gather(ev.max_bytes_per_pe, ev.num_pes)
            elif ev.kind == "allgather":
                total += machine.allgather(ev.max_bytes_per_pe, ev.num_pes)
            elif ev.kind == "alltoall":
                total += machine.alltoall_direct(ev.max_bytes_per_pe, ev.num_pes)
            elif ev.kind == "alltoall-hypercube":
                total += machine.alltoall_hypercube(ev.max_bytes_per_pe, ev.num_pes)
            elif ev.kind == "alltoall-grid":
                total += machine.alltoall_grid(ev.max_bytes_per_pe, ev.num_pes)
            elif ev.kind == "barrier":
                total += machine.broadcast(0, ev.num_pes)
            elif ev.kind == "p2p-round":
                total += machine.p2p(ev.max_bytes_per_pe)
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


_PER_PE_FIELDS = (
    "bytes_sent_per_pe",
    "bytes_received_per_pe",
    "messages_per_pe",
    "chars_inspected_per_pe",
    "items_processed_per_pe",
    "forwarded_bytes_per_pe",
    "faults_injected_per_pe",
    "faults_detected_per_pe",
    "retries_per_pe",
    "retransmitted_bytes_per_pe",
    "transported_bytes_per_pe",
)

_PHASE_DICT_FIELDS = (
    "phase_bytes",
    "route_bytes",
    "barrier_wait_seconds",
)


def zero_traffic_report(num_pes: int) -> "TrafficReport":
    """An all-zero report for ``num_pes`` PEs (the merge identity)."""
    return TrafficReport(
        num_pes=num_pes,
        bytes_sent_per_pe=[0] * num_pes,
        bytes_received_per_pe=[0] * num_pes,
        messages_per_pe=[0] * num_pes,
        phase_bytes={},
        chars_inspected_per_pe=[0] * num_pes,
        items_processed_per_pe=[0] * num_pes,
        forwarded_bytes_per_pe=[0] * num_pes,
        faults_injected_per_pe=[0] * num_pes,
        faults_detected_per_pe=[0] * num_pes,
        retries_per_pe=[0] * num_pes,
        retransmitted_bytes_per_pe=[0] * num_pes,
        transported_bytes_per_pe=[0] * num_pes,
    )


def fold_traffic_report(target: "TrafficReport", report: "TrafficReport") -> None:
    """Add ``report``'s counters into ``target`` **in place**.

    The single definition of the report-merge contract: per-PE
    byte/message/work/forwarded counters and per-phase byte/route/barrier
    dicts add element-wise (exact sums) and collective events concatenate
    (so the cost model charges every run's collectives).  Used by :func:`merge_traffic_reports` and by the streaming
    accumulator of :class:`repro.session.stream.BatchStream` (which folds
    batch by batch instead of re-merging the growing cumulative report).
    """
    if report.num_pes != target.num_pes:
        raise ValueError(
            "cannot merge traffic reports from machines of different sizes: "
            f"{sorted({target.num_pes, report.num_pes})}"
        )
    for attr in _PER_PE_FIELDS:
        totals = getattr(target, attr)
        values = getattr(report, attr)
        if len(totals) < len(values):
            # hand-built reports may omit optional per-PE lists; treat the
            # missing slots as zeros on the accumulator side
            totals.extend([0] * (len(values) - len(totals)))
        for pe, v in enumerate(values):
            totals[pe] += v
    for attr in _PHASE_DICT_FIELDS:
        totals = getattr(target, attr)
        for phase, value in getattr(report, attr).items():
            totals[phase] = totals.get(phase, 0) + value
    target.collectives.extend(report.collectives)
    target.job_retries += report.job_retries
    # observability attachments fold through their own algebra: timelines
    # concatenate end-to-end (every span exactly once), metric snapshots
    # add counters/histograms and keep the later gauges.  ``report``'s
    # attachments are never mutated — a first fold aliases them into the
    # accumulator, later folds build fresh merged objects.
    if report.timeline is not None:
        target.timeline = (
            report.timeline
            if target.timeline is None
            else target.timeline.merged(report.timeline)
        )
    if report.metrics is not None:
        target.metrics = (
            report.metrics
            if target.metrics is None
            else target.metrics.merged(report.metrics)
        )
    # engine provenance: first tagged report wins; folding reports produced
    # by different engines yields the explicit marker "mixed"
    if report.engine:
        if not target.engine:
            target.engine = report.engine
        elif target.engine != report.engine:
            target.engine = "mixed"


def merge_traffic_reports(reports: List["TrafficReport"]) -> "TrafficReport":
    """Combine per-run reports into one cumulative report (exact sums).

    A fresh report built by folding every input through
    :func:`fold_traffic_report`; the inputs are never mutated.  All reports
    must describe the same machine (equal ``num_pes``).  An empty input
    merges to an all-zero single-PE report.
    """
    merged = zero_traffic_report(reports[0].num_pes if reports else 1)
    for r in reports:
        fold_traffic_report(merged, r)
    return merged


class TrafficMeter:
    """Thread-safe collector of communication/work statistics for one run."""

    def __init__(self, num_pes: int):
        self.num_pes = num_pes
        #: engine provenance stamped onto :meth:`report` snapshots; the
        #: execution engine sets this at the start of a run
        self.engine = ""
        self._lock = threading.Lock()
        self._sent = [0] * num_pes
        self._received = [0] * num_pes
        self._messages = [0] * num_pes
        self._phase_bytes: Dict[str, int] = defaultdict(int)
        self._chars = [0] * num_pes
        self._items = [0] * num_pes
        self._collectives: List[CollectiveEvent] = []
        self._phases: Dict[int, str] = {}
        self._barrier_wait: Dict[str, float] = defaultdict(float)
        self._forwarded = [0] * num_pes
        self._route_bytes: Dict[str, int] = defaultdict(int)
        self._faults_injected = [0] * num_pes
        self._faults_detected = [0] * num_pes
        self._retries = [0] * num_pes
        self._retransmitted = [0] * num_pes
        self._transported = [0] * num_pes

    # ------------------------------------------------------------------ phases
    def set_phase(self, rank: int, phase: str) -> None:
        """Label subsequent traffic of ``rank`` with ``phase``."""
        with self._lock:
            self._phases[rank] = phase

    def current_phase(self, rank: int) -> str:
        """The phase label currently attributed to ``rank``'s traffic."""
        return self._phases.get(rank, "unlabelled")

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
            self._sent[src] += nbytes
            self._received[dst] += nbytes
            self._messages[src] += 1
            if phase is None:
                phase = self._phases.get(src, "unlabelled")
            self._phase_bytes[phase] += nbytes

    def record_local_work(self, rank: int, chars: int, items: int = 0) -> None:
        """Charge ``rank`` with ``chars`` inspected characters / ``items`` strings."""
        with self._lock:
            self._chars[rank] += chars
            self._items[rank] += items

    def record_barrier_wait(self, rank: int, phase: str, seconds: float) -> None:
        """Record ``seconds`` ``rank`` spent blocked in ``barrier()`` during ``phase``.

        Kept out of the phase's implicit wall-clock account: barrier wait is
        straggler time, and charging it to whatever phase surrounds the
        barrier would inflate merge/exchange timings (the attribution fix of
        the observability layer; ``tests/test_obs_trace.py`` pins the split).
        """
        with self._lock:
            self._barrier_wait[phase] += max(0.0, seconds)

    def record_route(
        self, rank: int, route: str, nbytes: int, forwarded: int
    ) -> None:
        """Attribute one routed-delivery batch sent by ``rank``.

        ``nbytes`` is the batch's full wire size (already recorded as a
        normal send by the communicator — this call only *attributes*, it
        never double-counts), ``forwarded`` the part that is routing
        overhead: relayed payloads plus frame headers.  ``route`` labels the
        routing phase (e.g. ``"hypercube-dim1"``, ``"grid-rows"``).
        """
        with self._lock:
            self._forwarded[rank] += forwarded
            self._route_bytes[route] += nbytes

    def record_fault_injected(self, rank: int) -> None:
        """Count one injected fault against ``rank`` (the struck PE)."""
        with self._lock:
            self._faults_injected[rank] += 1

    def record_fault_detected(self, rank: int) -> None:
        """Count one detected fault event at ``rank`` (the detecting PE)."""
        with self._lock:
            self._faults_detected[rank] += 1

    def record_retry(self, rank: int) -> None:
        """Count one recovery retry (retransmit pull) initiated by ``rank``."""
        with self._lock:
            self._retries[rank] += 1

    def record_retransmit(
        self, src: int, dst: int, nbytes: int, phase: Optional[str] = None
    ) -> None:
        """Record recovery traffic of ``nbytes`` from ``src`` to ``dst``.

        Like :meth:`record_send` — the bytes enter the per-PE sent/received
        totals, message counts and phase attribution — but additionally
        tallied as retransmitted, which :attr:`TrafficReport.origin_bytes_sent`
        subtracts: recovery traffic must never inflate the paper's
        communication-volume metric.
        """
        if src == dst:
            return
        with self._lock:
            self._sent[src] += nbytes
            self._received[dst] += nbytes
            self._messages[src] += 1
            self._retransmitted[src] += nbytes
            if phase is None:
                phase = self._phases.get(src, "unlabelled")
            self._phase_bytes[phase] += nbytes

    def record_transport(self, rank: int, nbytes: int) -> None:
        """Count ``nbytes`` the engine's data plane physically moved for ``rank``.

        Orthogonal to the simulated wire accounting: :meth:`record_send`
        charges what a real MPI implementation *would* serialise, this
        counts what the engine's transport (pipes + shared memory) really
        shipped.  The thread engine never calls it.
        """
        with self._lock:
            self._transported[rank] += nbytes

    def absorb(self, report: TrafficReport) -> None:
        """Fold a finished per-worker ``report`` into this live meter.

        The processes engine gives every rank worker its own full-size
        meter (each records into explicit rank slots, exactly like the
        thread engine's shared meter) and merges the per-worker snapshots
        into the caller's meter here.  Addition is element-wise and exact,
        so the merged report is bit-identical to what one shared meter
        would have collected.
        """
        if report.num_pes != self.num_pes:
            raise ValueError(
                "cannot absorb a report from a different machine size: "
                f"meter has {self.num_pes} PEs, report {report.num_pes}"
            )
        pairs = (
            (self._sent, report.bytes_sent_per_pe),
            (self._received, report.bytes_received_per_pe),
            (self._messages, report.messages_per_pe),
            (self._chars, report.chars_inspected_per_pe),
            (self._items, report.items_processed_per_pe),
            (self._forwarded, report.forwarded_bytes_per_pe),
            (self._faults_injected, report.faults_injected_per_pe),
            (self._faults_detected, report.faults_detected_per_pe),
            (self._retries, report.retries_per_pe),
            (self._retransmitted, report.retransmitted_bytes_per_pe),
            (self._transported, report.transported_bytes_per_pe),
        )
        with self._lock:
            for totals, values in pairs:
                for pe, v in enumerate(values):
                    totals[pe] += v
            for phase, v in report.phase_bytes.items():
                self._phase_bytes[phase] += v
            for phase, v in report.barrier_wait_seconds.items():
                self._barrier_wait[phase] += v
            for route, v in report.route_bytes.items():
                self._route_bytes[route] += v
            self._collectives.extend(report.collectives)

    def record_collective(
        self,
        kind: str,
        max_bytes_per_pe: int,
        num_pes: int,
        phase: Optional[str] = None,
    ) -> None:
        """Append one collective event for the cost model (see CollectiveEvent)."""
        with self._lock:
            self._collectives.append(
                CollectiveEvent(
                    kind=kind,
                    phase=phase if phase is not None else "unlabelled",
                    max_bytes_per_pe=max_bytes_per_pe,
                    num_pes=num_pes,
                )
            )

    # ------------------------------------------------------------------ results
    def report(self) -> TrafficReport:
        """Snapshot all counters into an immutable :class:`TrafficReport`."""
        with self._lock:
            return TrafficReport(
                num_pes=self.num_pes,
                bytes_sent_per_pe=list(self._sent),
                bytes_received_per_pe=list(self._received),
                messages_per_pe=list(self._messages),
                phase_bytes=dict(self._phase_bytes),
                chars_inspected_per_pe=list(self._chars),
                items_processed_per_pe=list(self._items),
                collectives=list(self._collectives),
                barrier_wait_seconds=dict(self._barrier_wait),
                forwarded_bytes_per_pe=list(self._forwarded),
                route_bytes=dict(self._route_bytes),
                faults_injected_per_pe=list(self._faults_injected),
                faults_detected_per_pe=list(self._faults_detected),
                retries_per_pe=list(self._retries),
                retransmitted_bytes_per_pe=list(self._retransmitted),
                transported_bytes_per_pe=list(self._transported),
                engine=self.engine,
            )
