"""The chaos matrix: seeded fault plans across algorithms and topologies.

The acceptance contract of the fault subsystem: under seeded drop / corrupt
/ straggle plans, every algorithm x delivery combination (direct, the
hypercube, and its fallback off a power of two) either completes
with **bit-identical** outputs, LCP arrays and origin wire bytes (after
transparent recovery), or raises a typed fault error — never a
hang past the configured timeout, never silently wrong output.  Each cell
runs unsealed and with the content seals of ``wire_checksums`` (the pairing
``FaultPlan.wants_checksums`` offers), since seals on blocks and route
frames must not disturb recovery.  Crash plans recover through
``Cluster.sort(..., max_retries=...)``.

``faults_injected`` is reconciled exactly against the injector (both count
the same fired rules).  On the threads engine a run is deterministic — the
cooperative scheduler recovers a withheld message only once no rank can run,
with no timer to race — so two runs of one cell must agree on every count
of the report.  The processes engine recovers a withheld message on a
backoff timer; its counts are the same but that is asserted against the
threads engine in :class:`TestChaosAcrossEngines`, and here it keeps the
lower bounds.  The single-fault exact counts live in
``tests/test_faults_injection.py``.

Set ``REPRO_CHAOS_SEED`` to sweep other plan seeds (the CI fault-matrix job
runs three).
"""

import os

import pytest

from engine_conformance import PAPER_ALGORITHMS
from repro.faults import FaultPlan, FaultRule
from repro.session import Cluster

from oracles.faults import injected_counts

NUM_PES = 4
#: the chaos matrix's delivery axis: (exchange topology, PEs).  The
#: hypercube runs on a 2-cube and, at p = 3, in its one-round fallback,
#: whose all-peer batches are point-to-point messages too
ROUTES = {
    "direct": ("direct", NUM_PES),
    "hypercube": ("hypercube", NUM_PES),
    "hypercube-fallback": ("hypercube", 3),
}
TIMEOUT = 30.0

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def _workload():
    from repro.strings.generators import dn_instance

    return dn_instance(80, 0.5, length=40, seed=5)


def _plan(kind: str) -> FaultPlan:
    """A seeded plan striking a handful of messages of the given kind."""
    if kind == "straggle":
        return FaultPlan(
            seed=CHAOS_SEED,
            rules=(FaultRule(kind="straggle", rank=1, seconds=0.02, max_hits=2),),
        )
    # message rules: strike a few messages across two channels
    return FaultPlan(
        seed=CHAOS_SEED,
        rules=(
            FaultRule(kind=kind, src=0, max_hits=2),
            FaultRule(kind=kind, dst=2, max_hits=1),
        ),
        retry_delay=0.01,
    )


def _sort(algorithm, topology, plan=None, max_retries=0, sealed=False,
          num_pes=NUM_PES):
    cluster = Cluster(
        num_pes=num_pes,
        exchange_topology=topology,
        wire_checksums=sealed,
        timeout=TIMEOUT,
        fault_plan=plan,
    )
    data = _workload()
    result = cluster.sort(data, "ms" if algorithm is None else algorithm,
                          check=True, max_retries=max_retries)
    return cluster, result


def _counts(report):
    """Every count of a report but the wall-clock barrier waits."""
    return {
        key: value
        for key, value in report.counts.items()
        if key[0] != "barrier_wait_seconds"
    }


@pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("sealed", (False, True), ids=("unsealed", "sealed"))
@pytest.mark.parametrize("fault_kind", ("drop", "corrupt", "straggle"))
def test_chaos_recovery_is_bit_identical(algorithm, route, sealed, fault_kind):
    """Seeded chaos either recovers bit-identically or raises typed errors."""
    topology, num_pes = ROUTES[route]
    _, baseline = _sort(algorithm, topology, plan=FaultPlan(), sealed=sealed,
                        num_pes=num_pes)
    plan = _plan(fault_kind)
    cluster, chaotic = _sort(algorithm, topology, plan=plan, sealed=sealed,
                             num_pes=num_pes)

    # bit-identical recovery: outputs, LCPs and origin wire volume
    assert chaotic.outputs_per_pe == baseline.outputs_per_pe
    assert chaotic.lcps_per_pe == baseline.lcps_per_pe
    assert (
        chaotic.report.origin_bytes_sent == baseline.report.origin_bytes_sent
    )

    # the report's injection counter reconciles exactly with the engine's
    # injector: every fault the plan fired is accounted for, none invented
    report = chaotic.report
    assert report.faults_injected == sum(injected_counts(cluster.engine._injector).values())

    if fault_kind in ("drop", "corrupt"):
        # every injected message fault must have been detected and repaired
        assert report.faults_detected >= report.faults_injected
        assert report.retries >= report.faults_injected
        if report.faults_injected:
            assert report.retransmitted_bytes > 0
    else:  # straggle: slowdown only, nothing to detect or retransmit
        assert report.faults_injected >= 1

    if cluster.engine.name == "threads":
        # a deterministic schedule: a second run reproduces every count
        _, again = _sort(algorithm, topology, plan=plan, sealed=sealed,
                         num_pes=num_pes)
        assert _counts(again.report) == _counts(report)
        assert again.report.collectives == report.collectives


@pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
def test_chaos_crash_recovers_via_session_retry(algorithm):
    """A single-shot rank crash is survived by ``max_retries`` on any algorithm."""
    _, baseline = _sort(algorithm, None, plan=FaultPlan())
    plan = FaultPlan(
        seed=CHAOS_SEED,
        rules=(FaultRule(kind="crash", rank=1, after=1, max_hits=1),),
    )
    _, recovered = _sort(algorithm, None, plan=plan, max_retries=2)
    assert recovered.outputs_per_pe == baseline.outputs_per_pe
    assert recovered.lcps_per_pe == baseline.lcps_per_pe
    assert recovered.report.faults_injected == 1
    assert recovered.report.job_retries == 1


def test_chaos_plans_replay_identically():
    """Two runs of one plan produce identical fault schedules and reports."""
    plan = _plan("drop")
    _, first = _sort("ms", "hypercube", plan=plan)
    _, second = _sort("ms", "hypercube", plan=plan)
    assert first.outputs_per_pe == second.outputs_per_pe
    assert (
        first.report.faults_injected_per_pe
        == second.report.faults_injected_per_pe
    )


class TestChaosAcrossEngines:
    """The processes engine replays the same chaos schedules as the threads.

    The injector is deterministic per channel, and both engines apply it in
    one shared receive path at the receiver, in send order, under the
    sender's phase.  Under one ``REPRO_CHAOS_SEED`` both engines must
    therefore fire the identical fault schedule, recover to bit-identical
    outputs, and agree per PE on every fault counter and on the per-phase
    bytes: a withheld message is detected and pulled once on either engine,
    whether the threads scheduler or the processes backoff timer finds it.
    """

    def _require_processes(self):
        from repro.mpi.procengine import process_engine_available

        ok, reason = process_engine_available()
        if not ok:
            pytest.skip(reason)

    def _sort_on(self, engine_name, fault_kind, max_retries=0):
        if fault_kind == "crash":
            plan = FaultPlan(
                seed=CHAOS_SEED,
                rules=(FaultRule(kind="crash", rank=1, after=1, max_hits=1),),
            )
        else:
            plan = _plan(fault_kind)
        # hypercube routing moves buckets as point-to-point messages, so
        # the message rules actually strike (the direct exchange of ``ms``
        # rides on collectives the plan's src/dst rules do not match)
        cluster = Cluster(
            num_pes=NUM_PES,
            engine=engine_name,
            exchange_topology="hypercube",
            timeout=TIMEOUT,
            fault_plan=plan,
        )
        with cluster:
            result = cluster.sort(
                _workload(), "ms", check=True, max_retries=max_retries
            )
        return cluster, result

    @pytest.mark.parametrize("fault_kind", ("drop", "corrupt", "duplicate", "delay"))
    def test_message_faults_reproduce_thread_counters(self, fault_kind):
        self._require_processes()
        tcluster, threaded = self._sort_on("threads", fault_kind)
        pcluster, processed = self._sort_on("processes", fault_kind)

        # bit-identical recovery across engines
        assert processed.outputs_per_pe == threaded.outputs_per_pe
        assert processed.lcps_per_pe == threaded.lcps_per_pe
        assert (
            processed.report.origin_bytes_sent
            == threaded.report.origin_bytes_sent
        )

        # the deterministic schedule fires identically on both engines
        assert (
            injected_counts(pcluster.engine._injector)
            == injected_counts(tcluster.engine._injector)
        )
        assert (
            processed.report.faults_injected
            == sum(injected_counts(pcluster.engine._injector).values())
        )
        # ... and is detected, repaired and charged identically, per PE
        for counter in (
            "faults_injected_per_pe",
            "faults_detected_per_pe",
            "retries_per_pe",
            "retransmitted_bytes_per_pe",
        ):
            assert getattr(processed.report, counter) == getattr(
                threaded.report, counter
            ), counter
        assert dict(processed.report.phase_bytes) == dict(
            threaded.report.phase_bytes
        )

        report = threaded.report
        assert report.faults_injected > 0
        assert report.faults_detected >= report.faults_injected
        assert report.retransmitted_bytes > 0
        if fault_kind != "duplicate":  # a duplicate needs no pull
            assert report.retries >= report.faults_injected

    def test_crash_recovers_identically_via_session_retry(self):
        self._require_processes()
        _, tbase = self._sort_on("threads", "crash", max_retries=2)
        _, pbase = self._sort_on("processes", "crash", max_retries=2)
        assert pbase.outputs_per_pe == tbase.outputs_per_pe
        assert pbase.report.faults_injected == tbase.report.faults_injected == 1
        assert pbase.report.job_retries == tbase.report.job_retries == 1

    def test_straggle_fires_identically(self):
        self._require_processes()
        tcluster, threaded = self._sort_on("threads", "straggle")
        pcluster, processed = self._sort_on("processes", "straggle")
        assert processed.outputs_per_pe == threaded.outputs_per_pe
        assert (
            injected_counts(pcluster.engine._injector)
            == injected_counts(tcluster.engine._injector)
        )
