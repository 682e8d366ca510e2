"""The session object of the new API: a reusable simulated machine.

A :class:`Cluster` owns one execution engine (by default the thread-per-rank
:class:`repro.mpi.engine.ThreadEngine`, whose shared machine state is reused
across sorts) together with its :class:`~repro.config.RunConfig`, resolved
once at construction and carried to every rank as ``comm.config``.  Sorting
goes through typed
:class:`repro.session.SortSpec` configurations, each of which runs its own
rank program (:meth:`~repro.session.SortSpec.run`)::

    from repro.session import Cluster, MSSpec

    cluster = Cluster(num_pes=8, exchange_topology="hypercube")
    result = cluster.sort(data, MSSpec(sampling="character"), check=True)

Streaming ingest (:meth:`Cluster.sort_batches`) sorts an iterable of chunks
one at a time — bounded memory, per-batch :class:`repro.dist.api.SortResult`
objects, and a cumulative merged :class:`repro.net.metrics.TrafficReport` —
the path a CommonCrawl WET reader will feed.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from ..config import RunConfig
from ..dist.api import RankOutput, SortResult, distribute_strings
from ..faults.plan import FaultPlan
from ..net.metrics import TrafficMeter, TrafficReport
from ..mpi.engine import SpmdError, get_engine
from ..net.cost_model import DEFAULT_MACHINE, MachineModel
from ..strings.checker import check_sort
from ..strings.packed import string_lengths, validate_strings
from .specs import MSSpec, SortSpec, spec_class
from .stream import BatchStream

__all__ = ["Cluster"]

#: the counters a failed attempt carries into the job's report
_FAULT_COUNTERS = ("faults_injected_per_pe", "faults_detected_per_pe", "retries_per_pe")


def _merge_rank_extras(results: List[RankOutput]) -> Dict[str, Any]:
    """Aggregate per-rank ``extra`` dicts, asserting the ranks agree.

    Reporting ``results[0].extra`` alone would let a bug in the
    (collective) estimate of ``AutoSpec`` have ranks silently pick
    different algorithms.  Here every rank's extras are combined and any
    disagreement on a shared key raises.
    """
    merged: Dict[str, Any] = {}
    owner: Dict[str, int] = {}
    for rank, output in enumerate(results):
        for key, value in output.extra.items():
            if key in merged:
                if merged[key] != value:
                    raise SpmdError(
                        f"ranks disagree on extra {key!r}: rank {owner[key]} "
                        f"reports {merged[key]!r}, rank {rank} reports {value!r}"
                    )
            else:
                merged[key] = value
                owner[key] = rank
    return merged


class Cluster:
    """A reusable simulated machine plus its run configuration.

    ``engine``, ``exchange_topology``, ``timeout``, ``wire_checksums`` and
    ``trace`` are the fields of
    :class:`~repro.config.RunConfig`: :attr:`config` is the ``REPRO_*``
    environment (:meth:`~repro.config.RunConfig.from_env`) with every
    keyword that is not ``None`` applied, and every sort on this cluster
    runs with it.  A spec whose own ``exchange_topology`` is set overrides
    the cluster's for that sort.  ``docs/API.md`` lists the fields, their
    defaults and accepted values.

    Parameters
    ----------
    num_pes:
        Number of simulated PEs of this cluster.
    machine:
        The alpha-beta :class:`~repro.net.cost_model.MachineModel` used for
        modelled-time queries on results produced here.
    engine:
        Execution backend name (see :data:`repro.mpi.engine.ENGINES`):
        ``"threads"`` is the built-in simulator, ``"processes"`` runs the
        same rank programs as real OS processes
        (:class:`repro.mpi.procengine.ProcessEngine`), and third-party
        backends plug in via :func:`repro.mpi.engine.register_engine`; see
        ``docs/ENGINES.md`` for the backend contract.
    exchange_topology:
        Delivery strategy of the bucket all-to-all: ``"direct"``,
        ``"hypercube"`` or ``"grid"`` (:mod:`repro.net.router`).  Routing
        changes startup counts and measured total volume (forwarded bytes
        are attributed separately), never sorted outputs, LCP arrays or
        origin wire bytes.
    timeout:
        Deadlock-detection timeout per blocking operation, in seconds, of
        the processes engine; the threads engine detects deadlock exactly
        and ignores it.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` chaos schedule, installed
        into the engine: point-to-point messages travel in checksummed,
        sequence-numbered envelopes and the plan's seeded rules inject
        drops, duplicates, delays, corruption, crashes and stragglers (see
        ``docs/FAULTS.md``).  ``None`` (default) keeps the zero-overhead
        wire format.
    wire_checksums:
        CRC32 seals on the exchange's wire formats
        (:class:`~repro.dist.exchange.StringBlock` /
        :class:`~repro.dist.exchange.LcpCompressedBlock` /
        :class:`~repro.net.router.RouteFrame`).  Seals add 4 bytes per
        block (plus a varint sequence number per routed frame) to the
        accounted wire volume.
    trace:
        Per-rank timeline recording (:mod:`repro.obs`): the result's report
        carries a ``timeline`` (aligned per-rank phase/barrier spans, with
        the run's labels and input size in its ``meta``), and its
        ``metrics`` property renders the labeled
        :class:`~repro.obs.registry.MetricsSnapshot` from the report's
        counters and that timeline on each read.  Tracing never changes
        sorted outputs or byte accounting; overhead is bounded (<5 %,
        pinned by ``BENCH_PR10.json``) and zero when off.
    """

    def __init__(
        self,
        num_pes: int = 8,
        *,
        machine: MachineModel = DEFAULT_MACHINE,
        engine: Optional[str] = None,
        exchange_topology: Optional[str] = None,
        timeout: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        wire_checksums: Optional[bool] = None,
        trace: Optional[bool] = None,
    ):
        if num_pes <= 0:
            raise ValueError("num_pes must be positive")
        self.num_pes = num_pes
        self.machine = machine
        #: the run configuration of every sort on this cluster
        self.config = RunConfig.from_env().override(
            engine=engine,
            exchange_topology=exchange_topology,
            timeout=timeout,
            wire_checksums=wire_checksums,
            trace=trace,
        )
        self.fault_plan = fault_plan
        self._engine = get_engine(self.config.engine)(
            num_pes, config=self.config, fault_plan=fault_plan
        )

    # ------------------------------------------------------------------ internals
    @property
    def engine(self):
        """The underlying execution engine (reused across sorts)."""
        return self._engine

    def shutdown(self) -> None:
        """Release the engine's resources; idempotent.

        For the thread engine this drops the reusable machine state; for the
        processes engine it reaps any stray workers and sweeps leftover
        shared-memory segments.  The cluster stays usable afterwards (the
        engine rebuilds what it needs on the next sort), so shutting down is
        never *required* for correctness — it is the polite way to end a
        session early, and what ``with Cluster(...) as cluster:`` does on
        exit.
        """
        shutdown = getattr(self._engine, "shutdown", None)
        if callable(shutdown):
            shutdown()

    def __enter__(self) -> "Cluster":
        """Enter a session scope; :meth:`shutdown` runs on exit."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Exit the session scope, releasing engine resources."""
        self.shutdown()

    def _resolve_spec(self, spec: Union[SortSpec, str, None]) -> SortSpec:
        if spec is None:
            return MSSpec()
        if isinstance(spec, str):
            return spec_class(spec)()
        if not isinstance(spec, SortSpec):
            raise TypeError(
                f"spec must be a SortSpec, algorithm name or None, got {spec!r}"
            )
        # surface a spec class with no rank program before the SPMD run starts
        if not spec.algorithm or type(spec).run is SortSpec.run:
            raise TypeError(
                f"{type(spec).__name__} is no algorithm: a spec class names its "
                "algorithm and overrides SortSpec.run"
            )
        return spec

    def _distribute(
        self, data: Sequence, spec: SortSpec, pre_distributed: bool
    ) -> List[Sequence]:
        if pre_distributed:
            blocks = [validate_strings(b) for b in data]
            if len(blocks) != self.num_pes:
                raise ValueError(
                    f"pre_distributed input has {len(blocks)} blocks but the "
                    f"cluster simulates {self.num_pes} PEs"
                )
            return blocks
        return distribute_strings(data, self.num_pes, by=spec.distribute_by)

    def _topology_label(self, spec: SortSpec) -> str:
        """The exchange topology a sort effectively used (for metric labels)."""
        return spec.exchange_topology or self.config.exchange_topology

    # ------------------------------------------------------------------ sorting
    def sort(
        self,
        data: Sequence,
        spec: Union[SortSpec, str, None] = None,
        *,
        check: bool = False,
        pre_distributed: bool = False,
        max_retries: int = 0,
    ) -> SortResult:
        """Sort ``data`` on this cluster; returns a :class:`SortResult`.

        Parameters
        ----------
        data:
            A flat sequence of strings (``bytes``/``str``), a
            :class:`~repro.strings.stringset.StringSet`, a
            :class:`~repro.strings.packed.PackedStringArray`, or — with
            ``pre_distributed=True`` — one block per PE.
        spec:
            A :class:`SortSpec` (or an algorithm name, meaning that
            algorithm's default spec).  Defaults to ``MSSpec()``.
        check:
            Hold the result to its output contract with
            :func:`~repro.strings.checker.check_sort`: ``sorted()`` of all
            inputs is the oracle, and PDMS's origins are followed.
        pre_distributed:
            ``data`` is already one block per PE; ``spec.distribute_by`` is
            ignored.
        max_retries:
            Re-run a failed SPMD job up to this many times (default 0: fail
            fast).  The engine rebuilds its poisoned shared state
            transparently between attempts, so a rank crash injected by a
            single-shot fault rule is recovered by the next attempt.  The
            returned report is the *successful* attempt's traffic plus the
            failed attempts' fault counters (``job_retries`` records how
            many attempts failed).
        """
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        spec = self._resolve_spec(spec)
        blocks = self._distribute(data, spec, pre_distributed)

        # what failed attempts leave in the job's report: their fault
        # counts (so the chaos suite can reconcile them against the plan)
        # and one job retry each, never their bytes (the retry reruns the
        # job from scratch, so their traffic would be charged twice)
        failed = TrafficReport(self.num_pes)
        while True:
            meter = TrafficMeter(self.num_pes)
            try:
                results, report = self._engine.run(
                    spec.run,
                    args_per_rank=[(b,) for b in blocks],
                    meter=meter,
                )
                break
            except SpmdError:
                if failed.job_retries >= max_retries:
                    raise
                # the engine's next run transparently rebuilds the poisoned state
                failed.fold(meter.report().subset(_FAULT_COUNTERS))
                failed.add("job_retries", None, 1)
        report.fold(failed)

        num_strings = sum(len(b) for b in blocks)
        if report.timeline is not None:
            # the run's labels and input size, which report.metrics reads
            # (the configured engine name, so a registered alias keeps its label)
            report.timeline.meta.update(
                algorithm=spec.algorithm,
                engine=self.config.engine,
                topology=self._topology_label(spec),
                num_strings=num_strings,
            )

        result = SortResult(
            algorithm=spec.algorithm,
            num_pes=self.num_pes,
            num_strings=num_strings,
            num_chars=sum(int(string_lengths(b).sum()) for b in blocks),
            inputs_per_pe=blocks,
            rank_outputs=results,
            report=report,
            extra=_merge_rank_extras(results),
            machine=self.machine,
        )

        if check:
            check_sort(blocks, results)
        return result

    def sort_batches(
        self,
        batches: Iterable[Sequence],
        spec: Union[SortSpec, str, None] = None,
        *,
        check: bool = False,
        max_retries: int = 0,
    ) -> BatchStream:
        """Sort an iterable of chunks one at a time (streaming ingest).

        Each chunk is distributed, sorted and returned as its own
        :class:`SortResult` while the next chunk has not been pulled from
        ``batches`` yet — memory stays bounded by one chunk plus its sorted
        output, which is what lets a WET-file reader feed terabyte-scale
        corpora through a laptop-sized simulation.  The returned
        :class:`~repro.session.stream.BatchStream` is lazy: iterate it for
        the per-batch results, or call :meth:`~repro.session.stream.BatchStream.run`
        to drain it; its ``merged_report`` always covers exactly the batches
        sorted so far (totals equal to the sum of the per-batch reports).

        ``max_retries`` is forwarded to each batch's :meth:`sort`; completed
        batches are checkpointed by the stream, so a batch that fails even
        after its retries can be re-attempted by calling ``next()`` again —
        the stream resumes at the failed chunk, never re-sorting (or
        skipping) earlier ones.
        """
        spec = self._resolve_spec(spec)
        return BatchStream(self, batches, spec, check=check, max_retries=max_retries)
