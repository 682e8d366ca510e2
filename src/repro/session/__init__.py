"""Session-based sorting API: :class:`Cluster` + typed :class:`SortSpec`.

This package is the public face of the distributed sorters since the API
redesign:

* :class:`Cluster` — a reusable simulated machine with its run
  configuration (:class:`repro.config.RunConfig`: engine backend,
  exchange topology, ...), resolved once per cluster;
* the :class:`SortSpec` hierarchy — one frozen, validated, serializable
  configuration dataclass per algorithm (``to_dict`` / ``from_dict`` /
  stable ``config_hash()``), read directly by the rank programs;
* :class:`AlgorithmRegistry` / :func:`register_algorithm` — the pluggable
  name -> (rank runner, spec class) mapping through which third-party SPMD
  rank programs join ``Cluster.sort`` without editing ``repro.dist.api``;
* :class:`BatchStream` — streaming batch ingest
  (:meth:`Cluster.sort_batches`) with a cumulative merged traffic report.

``Cluster(...).sort(data, spec)`` is the one entry point; it returns a
:class:`repro.dist.api.SortResult`.
"""

from .cluster import Cluster
from .registry import (
    AlgorithmEntry,
    AlgorithmRegistry,
    default_registry,
    register_algorithm,
)
from .specs import (
    AutoSpec,
    FKMergeSpec,
    HQuickSpec,
    MSSimpleSpec,
    MSSpec,
    PDMSGolombSpec,
    PDMSSpec,
    SampledSpec,
    SortSpec,
)
from .stream import BatchStream

__all__ = [
    "Cluster",
    "BatchStream",
    "AlgorithmEntry",
    "AlgorithmRegistry",
    "default_registry",
    "register_algorithm",
    "SortSpec",
    "HQuickSpec",
    "FKMergeSpec",
    "SampledSpec",
    "MSSpec",
    "MSSimpleSpec",
    "PDMSSpec",
    "PDMSGolombSpec",
    "AutoSpec",
]
