"""The session object of the new API: a reusable simulated machine.

A :class:`Cluster` owns one execution engine (by default the thread-per-rank
:class:`repro.mpi.engine.ThreadEngine`, whose shared machine state is reused
across sorts) together with the per-cluster settings that used to live in
process-global environment toggles (``REPRO_PACKED`` /
``REPRO_ASYNC_EXCHANGE``).  Sorting goes through typed
:class:`repro.session.SortSpec` configurations resolved against a pluggable
:class:`repro.session.AlgorithmRegistry`::

    from repro.session import Cluster, MSSpec

    cluster = Cluster(num_pes=8, async_exchange=True)
    result = cluster.sort(data, MSSpec(sampling="character"), check=True)

Streaming ingest (:meth:`Cluster.sort_batches`) sorts an iterable of chunks
one at a time — bounded memory, per-batch :class:`repro.dist.api.SortResult`
objects, and a cumulative merged :class:`repro.net.metrics.TrafficReport` —
the path a CommonCrawl WET reader will feed.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack, contextmanager
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from ..dist.api import RankOutput, SortResult, distribute_strings
from ..dist.exchange import use_async_exchange, use_exchange_topology
from ..faults.checksum import use_wire_checksums
from ..faults.plan import FaultPlan
from ..net.metrics import TrafficMeter, TrafficReport
from ..net.router import TOPOLOGY_NAMES, exchange_topology_name
from ..obs.derive import run_metrics
from ..mpi.comm import Communicator
from ..mpi.engine import (
    SpmdError,
    default_timeout,
    get_engine,
    resolve_engine_name,
)
from ..net.cost_model import DEFAULT_MACHINE, MachineModel
from ..strings.checker import check_distributed_sort, check_prefix_permutation
from ..strings.packed import PackedStringArray, use_packed
from ..strings.stringset import validate_strings
from .registry import AlgorithmRegistry, default_registry
from .specs import SortSpec
from .stream import BatchStream

__all__ = ["Cluster"]


def _block_num_chars(block: Sequence) -> int:
    if isinstance(block, PackedStringArray):
        return block.num_chars
    return sum(len(s) for s in block)


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
    """A reusable simulated machine plus its scoped execution settings.

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
        backends plug in via :func:`repro.mpi.engine.register_engine`.
        ``None`` (default) inherits the process-level setting (the
        ``REPRO_ENGINE`` environment variable, or ``"threads"``); see
        ``docs/ENGINES.md`` for the backend contract.
    packed / async_exchange:
        Per-cluster versions of the former process-global toggles: ``True``
        / ``False`` force the packed hot path / split-phase exchange on or
        off for sorts on this cluster, ``None`` (default) inherits the
        process-level setting (``REPRO_PACKED`` / ``REPRO_ASYNC_EXCHANGE``).
        Neither affects sorted outputs, LCP arrays or wire bytes.
    exchange_topology:
        Per-cluster delivery strategy of the bucket all-to-all:
        ``"direct"``, ``"hypercube"`` or ``"grid"``
        (:mod:`repro.net.router`); ``None`` (default) inherits the
        process-level ``REPRO_EXCHANGE_TOPOLOGY`` setting.  A spec whose
        own ``exchange_topology`` field is set overrides the cluster for
        that sort.  Routing changes startup counts and measured total
        volume (forwarded bytes are attributed separately), never sorted
        outputs, LCP arrays or origin wire bytes.
    timeout:
        Deadlock-detection timeout per blocking operation, in seconds;
        ``None`` (default) inherits the process-level setting (the
        ``REPRO_SPMD_TIMEOUT`` environment variable, or 600 s).
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` chaos schedule, installed
        into the engine: point-to-point messages travel in checksummed,
        sequence-numbered envelopes and the plan's seeded rules inject
        drops, duplicates, delays, corruption, crashes and stragglers (see
        ``docs/FAULTS.md``).  ``None`` (default) keeps the zero-overhead
        wire format.
    wire_checksums:
        Per-cluster version of the ``REPRO_WIRE_CHECKSUMS`` toggle: ``True``
        / ``False`` force CRC32 seals on the exchange's wire formats
        (:class:`~repro.dist.exchange.StringBlock` /
        :class:`~repro.dist.exchange.LcpCompressedBlock` /
        :class:`~repro.net.router.RouteFrame`) on or off for sorts on this
        cluster, ``None`` (default) inherits the process-level setting.
        Seals add 4 bytes per block (plus a varint sequence number per
        routed frame) to the accounted wire volume.
    trace:
        Per-cluster version of the ``REPRO_TRACE`` toggle: ``True`` arms
        per-rank timeline recording (:mod:`repro.obs`) for sorts on this
        cluster — the result's report carries ``timeline`` (aligned
        per-rank phase/barrier spans) and ``metrics`` (a labeled
        :class:`~repro.obs.registry.MetricsSnapshot`) attachments —
        ``False`` forces tracing off, ``None`` (default) inherits the
        process-level setting.  Tracing never changes sorted outputs or
        byte accounting; overhead is bounded (<5 %, pinned by
        ``BENCH_PR10.json``) and zero when off.
    registry:
        The :class:`~repro.session.AlgorithmRegistry` resolving algorithm
        names; defaults to the process-wide registry.
    """

    def __init__(
        self,
        num_pes: int = 8,
        *,
        machine: MachineModel = DEFAULT_MACHINE,
        engine: Optional[str] = None,
        packed: Optional[bool] = None,
        async_exchange: Optional[bool] = None,
        exchange_topology: Optional[str] = None,
        timeout: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        wire_checksums: Optional[bool] = None,
        trace: Optional[bool] = None,
        registry: Optional[AlgorithmRegistry] = None,
    ):
        if num_pes <= 0:
            raise ValueError("num_pes must be positive")
        if exchange_topology is not None and exchange_topology not in TOPOLOGY_NAMES:
            raise ValueError(
                f"unknown exchange_topology {exchange_topology!r}; "
                f"use one of {list(TOPOLOGY_NAMES)} or None to inherit"
            )
        self.num_pes = num_pes
        self.machine = machine
        self.packed = packed
        self.async_exchange = async_exchange
        self.exchange_topology = exchange_topology
        self.timeout = default_timeout() if timeout is None else timeout
        self.fault_plan = fault_plan
        self.wire_checksums = wire_checksums
        self.trace = trace
        self.registry = registry if registry is not None else default_registry()
        self.engine_name = resolve_engine_name(engine)
        # only pass the fault/trace seams when explicitly requested:
        # third-party engine factories without the keywords keep working
        # untouched (None still lets the engine honour REPRO_TRACE itself)
        engine_kwargs: Dict[str, Any] = {"timeout": self.timeout}
        if fault_plan is not None:
            engine_kwargs["fault_plan"] = fault_plan
        if trace is not None:
            engine_kwargs["trace"] = trace
        self._engine = get_engine(self.engine_name)(num_pes, **engine_kwargs)
        # serialises toggle application *together with* the run: the engine
        # has its own run lock, but the packed/async windows must cover the
        # whole run of the sort they belong to, not interleave with a
        # sibling sort's window
        self._sort_lock = threading.Lock()

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

    @contextmanager
    def _scoped_toggles(self):
        """Apply this cluster's packed/async settings for one run.

        The underlying switches are process-global, so the scope is the
        duration of the run.  Concurrent sorts on *this* cluster are safe
        (:meth:`sort` holds one lock across toggle window and engine run);
        concurrent sorts on differently-configured clusters in one process
        would still interleave their windows — use one cluster per thread
        or identical settings in that case.
        """
        with ExitStack() as stack:
            if self.packed is not None:
                stack.enter_context(use_packed(self.packed))
            if self.async_exchange is not None:
                stack.enter_context(use_async_exchange(self.async_exchange))
            if self.exchange_topology is not None:
                stack.enter_context(use_exchange_topology(self.exchange_topology))
            if self.wire_checksums is not None:
                stack.enter_context(use_wire_checksums(self.wire_checksums))
            yield

    def _resolve_spec(self, spec: Union[SortSpec, str, None]) -> SortSpec:
        if spec is None:
            return self.registry.spec_class("ms")()
        if isinstance(spec, str):
            return self.registry.spec_class(spec)()
        if not isinstance(spec, SortSpec):
            raise TypeError(
                f"spec must be a SortSpec, algorithm name or None, got {spec!r}"
            )
        # surface unregistered spec classes before the SPMD run starts
        self.registry.get(type(spec).algorithm)
        return spec

    def _distribute(
        self, data: Sequence, spec: SortSpec, pre_distributed: bool
    ) -> List[Sequence]:
        if pre_distributed:
            blocks = [
                b if isinstance(b, PackedStringArray) else validate_strings(b)
                for b in data
            ]
            if len(blocks) != self.num_pes:
                raise ValueError(
                    f"pre_distributed input has {len(blocks)} blocks but the "
                    f"cluster simulates {self.num_pes} PEs"
                )
            return blocks
        return distribute_strings(data, self.num_pes, by=spec.distribute_by)

    def _topology_label(self, spec: SortSpec) -> str:
        """The exchange topology a sort effectively used (for metric labels)."""
        name = getattr(spec, "exchange_topology", None) or self.exchange_topology
        return name if name is not None else exchange_topology_name()

    @staticmethod
    def _fold_failed_attempts(
        report: TrafficReport, failed: List[TrafficReport]
    ) -> None:
        """Carry the fault counters of failed attempts into the final report.

        A crashed attempt's traffic is discarded (the retry reruns it from
        scratch, so folding its bytes would double-charge the wire), but its
        *fault* counters are part of the job's story: without them a
        crash-then-retry job would report zero injected faults and the
        chaos suite could not reconcile the report against the plan.
        """
        for fr in failed:
            for target, source in (
                (report.faults_injected_per_pe, fr.faults_injected_per_pe),
                (report.faults_detected_per_pe, fr.faults_detected_per_pe),
                (report.retries_per_pe, fr.retries_per_pe),
            ):
                for i, v in enumerate(source):
                    if v and i < len(target):
                        target[i] += v
        report.job_retries += len(failed)

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
            Verify the output contract (full-sort or the PDMS
            prefix-permutation contract).
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
        entry = self.registry.get(type(spec).algorithm)
        blocks = self._distribute(data, spec, pre_distributed)

        def rank_program(comm: Communicator, local) -> RankOutput:
            return entry.runner(comm, local, spec)

        with self._sort_lock, self._scoped_toggles():
            failed_reports: List[TrafficReport] = []
            while True:
                meter = TrafficMeter(self.num_pes)
                try:
                    results, report = self._engine.run(
                        rank_program,
                        args_per_rank=[(b,) for b in blocks],
                        meter=meter,
                    )
                    break
                except SpmdError:
                    if len(failed_reports) >= max_retries:
                        raise
                    # keep the failed attempt's fault counters; the engine's
                    # next run transparently rebuilds the poisoned state
                    failed_reports.append(meter.report())
            if failed_reports:
                self._fold_failed_attempts(report, failed_reports)

        if report.timeline is not None:
            # derive the labeled metrics snapshot while the run's context
            # (algorithm, engine, topology, input size) is still at hand
            report.metrics = run_metrics(
                report,
                report.timeline,
                labels={
                    "algorithm": entry.name,
                    "engine": self.engine_name,
                    "topology": self._topology_label(spec),
                },
                num_strings=sum(len(b) for b in blocks),
            )

        outputs = [r.strings for r in results]
        lcps = [r.lcps for r in results]
        has_origins = any(r.origins is not None for r in results)
        origins = [r.origins or [] for r in results] if has_origins else None

        result = SortResult(
            algorithm=entry.name,
            num_pes=self.num_pes,
            num_strings=sum(len(b) for b in blocks),
            num_chars=sum(_block_num_chars(b) for b in blocks),
            inputs_per_pe=blocks,
            outputs_per_pe=outputs,
            lcps_per_pe=lcps,
            origins_per_pe=origins,
            report=report,
            extra=_merge_rank_extras(results),
            machine=self.machine,
        )

        if check:
            if has_origins:
                check_prefix_permutation(blocks, outputs)
            else:
                all_lcps = lcps if all(h is not None for h in lcps) else None
                check_distributed_sort(blocks, outputs, all_lcps)
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
