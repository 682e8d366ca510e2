"""repro — reproduction of "Communication-Efficient String Sorting" (IPDPS 2020).

The package implements the paper's distributed string sorting algorithms
(hQuick, FKmerge, MS, MS-simple, PDMS, PDMS-Golomb) on top of a simulated
distributed-memory machine with exact communication-volume accounting, plus
the packed sequential substrate they rely on (a vectorised MSD radix sort
and LCP loser trees).

Quickstart::

    from repro import Cluster, MSSpec
    from repro.strings import dn_instance

    data = dn_instance(num_strings=20_000, dn=0.5, length=64, seed=1)
    cluster = Cluster(num_pes=8)
    result = cluster.sort(data, MSSpec(), check=True)
    print(result.bytes_per_string(), result.modeled_time())

Architecture
------------

``repro`` is layered bottom-up; every layer only depends on the ones below:

* :mod:`repro.strings` — the packed string array, LCP/DIST machinery, workload
  generators (D/N family, COMMONCRAWL/DNAREADS-like corpora, suffix and
  skewed instances) and the output check;
* :mod:`repro.sequential` — the per-PE sorter and mergers (the vectorised
  MSD radix sort, LCP-aware loser trees);
* :mod:`repro.net` — the alpha-beta machine model, hypercube topology
  helpers and the :class:`~repro.net.metrics.TrafficMeter` that records
  exact wire volumes;
* :mod:`repro.mpi` — the mpi4py-style :class:`~repro.mpi.comm.Communicator`
  interface and the thread-per-rank SPMD engine simulating the cluster;
* :mod:`repro.dist` — the distributed algorithms themselves: regular
  sampling and splitter agreement (``partition``/``splitters``), the
  LCP-compressed all-to-all (``exchange``), hypercube quicksort
  (``hquick``), Golomb-coded fingerprint duplicate detection
  (``golomb``/``duplicates``), the DIST-prefix approximation
  (``prefix_doubling``) and the merge-sort rank program whose spec
  switches its stages (``api``);
* :mod:`repro.session` — the public API: :class:`Cluster` sessions over a
  reusable simulated machine, the typed :class:`SortSpec` configuration
  hierarchy whose classes run their own rank programs, and streaming batch
  ingest; each cluster's execution settings are one frozen
  :class:`RunConfig` (:mod:`repro.config`);
* :mod:`repro.figures` — the paper's figures, each defined once as cells
  that :func:`repro.figures.table` sorts into rows of exact counters; the
  CLI (``python -m repro experiment``) prints them and
  ``tests/test_paper_claims.py`` asserts the paper's claims on them.
"""

_SUBMODULE_HINT = (
    "the 'repro' package failed to import its submodule {name!r}: {exc}. "
    "Run from the repository with 'src' on sys.path (e.g. PYTHONPATH=src, "
    "'pip install -e .', or via pytest, whose configuration adds it) and "
    "make sure numpy is installed."
)

try:
    from .config import RunConfig
    from .dist import (
        SortResult,
        distribute_strings,
        merge_sort,
        hquick_sort,
    )
    from .mpi import Communicator, run_spmd
    from .net import MachineModel, DEFAULT_MACHINE
    from .sequential import sort_strings_with_lcp
    from .session import (
        Cluster,
        FKMergeSpec,
        HQuickSpec,
        MSSimpleSpec,
        MSSpec,
        PDMSGolombSpec,
        PDMSSpec,
        SortSpec,
    )
except ModuleNotFoundError as exc:  # pragma: no cover - import-time guard
    raise ImportError(
        _SUBMODULE_HINT.format(name=exc.name or "<unknown>", exc=exc)
    ) from exc

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "RunConfig",
    "SortSpec",
    "HQuickSpec",
    "FKMergeSpec",
    "MSSpec",
    "MSSimpleSpec",
    "PDMSSpec",
    "PDMSGolombSpec",
    "SortResult",
    "distribute_strings",
    "merge_sort",
    "hquick_sort",
    "Communicator",
    "run_spmd",
    "MachineModel",
    "DEFAULT_MACHINE",
    "sort_strings_with_lcp",
    "__version__",
]
