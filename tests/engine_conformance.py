"""Cross-engine conformance harness: the executable contract of an engine.

Any backend registered via :func:`repro.mpi.engine.register_engine` must be
observationally indistinguishable from the reference thread engine: the
same rank programs must produce **bit-identical** sorted outputs, LCP
arrays, PDMS origin labels, origin wire bytes, per-PE byte vectors and
config hashes — for every algorithm and exchange topology.
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
  reference engine's, with readable per-field failures.

``tests/test_engine_conformance.py`` drives the full matrix over the
in-tree engines; a third-party backend conforms when the same suite passes
with its name added to the axis (or by calling these helpers directly).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Tuple

import pytest

from repro.mpi.engine import ENGINES
from repro.mpi.procengine import process_engine_available
from repro.session import Cluster, default_registry

#: the paper's six algorithms; with the axes below, the conformance matrix
PAPER_ALGORITHMS = ("ms", "ms-simple", "pdms", "pdms-golomb", "hquick", "fkmerge")
TOPOLOGIES = ("direct", "hypercube", "grid")

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
    vectors, decoded local work) plus the report's ``engine`` tag and real
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
