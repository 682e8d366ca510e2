"""The promised public API surface, shared by the docs and reachability gates.

``REQUIRED`` maps a module of ``src/`` to the entry points README and the
docs promise.  ``tests/test_docstring_coverage.py`` requires each of them
to be documented; ``tests/test_reachability.py`` requires each of them to be
called by its entry corpus, which runs them and everything below them.
"""

from __future__ import annotations

from typing import Dict, List

REQUIRED: Dict[str, List[str]] = {
    "repro/dist/api.py": [
        "SortResult",
        "RankOutput",
        "distribute_strings",
        "merge_sort",
    ],
    "repro/session/cluster.py": ["Cluster", "Cluster.sort", "Cluster.sort_batches"],
    "repro/config.py": ["RunConfig", "RunConfig.from_env", "RunConfig.override"],
    "repro/session/specs.py": [
        "SortSpec",
        "SortSpec.to_dict",
        "SortSpec.from_dict",
        "SortSpec.config_hash",
        "SortSpec.run",
        "HQuickSpec.run",
        "_MergeSortSpec.run",
        "AutoSpec.run",
    ],
    "repro/session/stream.py": ["BatchStream"],
    "repro/dist/exchange.py": [
        "exchange_buckets",
        "StringBlock",
        "LcpCompressedBlock",
    ],
    "repro/mpi/engine.py": [
        "run_spmd",
        "ThreadComm",
        "ThreadEngine",
        "ThreadEngine.run",
        "get_engine",
        "register_engine",
    ],
    "repro/mpi/comm.py": ["Communicator"],
    "repro/strings/stringset.py": ["StringSet"],
    "repro/strings/packed.py": ["PackedStringArray"],
    "repro/net/metrics.py": [
        "TrafficReport",
        "TrafficMeter",
        "TrafficReport.fold",
        "TrafficReport.merged",
    ],
    "repro/net/cost_model.py": ["MachineModel"],
}
