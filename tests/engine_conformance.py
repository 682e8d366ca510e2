"""Cross-engine conformance harness: the executable contract of an engine.

Any backend registered via :func:`repro.mpi.engine.register_engine` must be
observationally indistinguishable from the reference thread engine: the
same rank programs must produce **bit-identical** sorted outputs, LCP
arrays, PDMS origin labels, origin wire bytes, per-PE byte and message
vectors, collective sequences and config hashes — for every algorithm and
exchange topology.
This module packages that contract as reusable pieces:

* :func:`all_engines` / :func:`engine_params` — the engine axis for pytest
  parametrization, with graceful skips where a backend cannot run (e.g. the
  platform lacks ``fork`` or POSIX shared memory);
* :func:`set_engine` — a context manager scoping ``REPRO_ENGINE`` so the
  whole call tree (``Cluster``, ``run_spmd``) runs on the chosen
  backend;
* :func:`sort_fingerprint` — one conformance cell: run a sort on a given
  engine and reduce the result to the comparable fingerprint;
* :func:`assert_engines_agree` — compare a fingerprint against the
  reference engine's, with readable per-field failures;
* :func:`failure_cause` — fail one rank on entry to a phase and return
  what the engine reports as the run's cause.

``tests/test_engine_conformance.py`` drives the full matrix over the
in-tree engines; a third-party backend conforms when the same suite passes
with its name added to the axis (or by calling these helpers directly).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Tuple

import pytest

from repro.mpi.comm import Communicator
from repro.mpi.engine import ENGINES, SpmdError
from repro.mpi.procengine import process_engine_available
from repro.session import Cluster, default_registry

#: the paper's six algorithms; with the axes below, the conformance matrix
PAPER_ALGORITHMS = ("ms", "ms-simple", "pdms", "pdms-golomb", "hquick", "fkmerge")
TOPOLOGIES = ("direct", "hypercube", "grid")
#: the phases MS's rank program enters, in order
MS_PHASES = ("local-sort", "splitter-determination", "exchange", "merge")

#: the engine every other backend is compared against
REFERENCE_ENGINE = "threads"

#: fingerprint fields that must be bit-identical across engines
_IDENTICAL_FIELDS = (
    "outputs_per_pe",
    "lcps_per_pe",
    "origins_per_pe",
    "config_hash",
    "total_bytes_sent",
    "origin_bytes_sent",
    "bytes_sent_per_pe",
    "forwarded_bytes_per_pe",
    "chars_inspected_per_pe",
    "messages_per_pe",
    "collectives",
)


def engine_available(name: str) -> Tuple[bool, str]:
    """Whether engine ``name`` can run on this platform: ``(ok, reason)``."""
    if name == "processes":
        return process_engine_available()
    if name in ENGINES:
        return True, ""
    return False, f"engine {name!r} is not registered"


def all_engines() -> List[str]:
    """Registered in-tree engine names, runnable or not (stable order)."""
    ordered = [REFERENCE_ENGINE]
    ordered += sorted(n for n in ENGINES if n != REFERENCE_ENGINE)
    return ordered


def engine_params() -> List[Any]:
    """The engine axis for ``@pytest.fixture(params=...)`` / parametrize.

    Engines that cannot run on this platform become skip-marked params, so
    a matrix cell reports *skipped with the platform's reason* instead of
    erroring — the graceful-degradation contract of the suite.
    """
    params: List[Any] = []
    for name in all_engines():
        ok, reason = engine_available(name)
        if ok:
            params.append(name)
        else:
            params.append(pytest.param(name, marks=pytest.mark.skip(reason=reason)))
    return params


@contextmanager
def set_engine(name: str) -> Iterator[str]:
    """Scope ``REPRO_ENGINE`` to ``name`` (restores the prior value)."""
    prior = os.environ.get("REPRO_ENGINE")
    os.environ["REPRO_ENGINE"] = name
    try:
        yield name
    finally:
        if prior is None:
            os.environ.pop("REPRO_ENGINE", None)
        else:
            os.environ["REPRO_ENGINE"] = prior


# CI sweeps the whole matrix under several workload seeds; locally the
# default keeps every cell deterministic run to run
DEFAULT_SEED = int(os.environ.get("REPRO_CONFORMANCE_SEED", "5"))


def conformance_workload(seed: int = DEFAULT_SEED):
    """The skew-heavy corpus every conformance cell sorts (adversarial mix)."""
    from repro.strings.generators import dn_instance

    corpus = dn_instance(110, 0.6, length=32, seed=seed)
    # empties and exact duplicates exercise the boundary paths
    return corpus + [b"", b"a" * 31, corpus[0], corpus[0]]


def sort_fingerprint(
    engine: str,
    algorithm: str,
    topology: str = "direct",
    num_pes: int = 4,
    seed: int = DEFAULT_SEED,
) -> Dict[str, Any]:
    """Run one conformance cell on ``engine``; returns its fingerprint.

    The fingerprint holds everything the contract pins bit-identically
    (outputs, LCPs, origins, config hash, the origin/total/per-PE wire byte
    vectors, decoded local work, per-PE message counts and the recorded
    collective sequence) plus the report's ``engine`` tag and real
    ``transported_bytes`` (informational — transport cost is the one thing
    engines legitimately differ on).
    """
    spec = default_registry().spec_class(algorithm)(seed=3)
    with Cluster(num_pes=num_pes, engine=engine, exchange_topology=topology) as cluster:
        result = cluster.sort(conformance_workload(seed), spec, check=True)
    report = result.report
    return {
        "outputs_per_pe": result.outputs_per_pe,
        "lcps_per_pe": result.lcps_per_pe,
        "origins_per_pe": result.origins_per_pe,
        "config_hash": spec.config_hash(),
        "total_bytes_sent": report.total_bytes_sent,
        "origin_bytes_sent": report.origin_bytes_sent,
        "bytes_sent_per_pe": list(report.bytes_sent_per_pe),
        "forwarded_bytes_per_pe": list(report.forwarded_bytes_per_pe),
        "chars_inspected_per_pe": list(report.chars_inspected_per_pe),
        "messages_per_pe": list(report.messages_per_pe),
        "collectives": [
            (ev.kind, ev.phase, ev.max_bytes_per_pe) for ev in report.collectives
        ],
        "engine_tag": report.engine,
        "transported_bytes": report.transported_bytes,
    }


def assert_engines_agree(
    candidate: Dict[str, Any], reference: Dict[str, Any], label: str = ""
) -> None:
    """Assert a candidate fingerprint matches the reference bit-for-bit."""
    for field in _IDENTICAL_FIELDS:
        assert candidate[field] == reference[field], (
            f"engine conformance violated{f' ({label})' if label else ''}: "
            f"{field} differs from the {REFERENCE_ENGINE!r} reference"
        )


class PhaseFailure(RuntimeError):
    """The exception :func:`failure_cause` raises inside one rank program."""


def failure_cause(engine: str, phase: str, rank: int = 1) -> BaseException:
    """Sort with MS on ``engine`` while ``rank`` raises entering ``phase``.

    The run must fail with :class:`SpmdError`; returns its ``__cause__``,
    which an engine must report as the rank program's own exception — not
    the "aborted" or "pipe closed" echo another rank raised in reaction.
    """
    original = Communicator.set_phase

    def set_phase(comm: Communicator, name: str) -> None:
        if comm.rank == rank and name == phase:
            raise PhaseFailure(f"rank {rank} failed entering {phase!r}")
        original(comm, name)

    # patched on the class, so forked rank processes inherit it too
    Communicator.set_phase = set_phase  # type: ignore[method-assign]
    try:
        with Cluster(num_pes=4, engine=engine) as cluster:
            with pytest.raises(SpmdError) as excinfo:
                cluster.sort(conformance_workload(), "ms")
    finally:
        Communicator.set_phase = original  # type: ignore[method-assign]
    return excinfo.value.__cause__
