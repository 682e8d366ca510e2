"""Session-based sorting API: :class:`Cluster` + typed :class:`SortSpec`.

This package is the public face of the distributed sorters since the API
redesign:

* :class:`Cluster` — a reusable simulated machine with its run
  configuration (:class:`repro.config.RunConfig`: engine backend,
  exchange topology, ...), resolved once per cluster;
* the :class:`SortSpec` hierarchy — one frozen, validated, serializable
  configuration dataclass per algorithm (``to_dict`` / ``from_dict`` /
  stable ``config_hash()``) that runs its own rank program
  (:meth:`SortSpec.run`); :data:`SPECS` maps each algorithm name to its
  class, and a third-party algorithm is a subclass that overrides ``run``;
* :class:`BatchStream` — streaming batch ingest
  (:meth:`Cluster.sort_batches`) with a cumulative merged traffic report.

``Cluster(...).sort(data, spec)`` is the one entry point; it returns a
:class:`repro.dist.api.SortResult`.
"""

from .cluster import Cluster
from .specs import (
    SPECS,
    FKMergeSpec,
    HQuickSpec,
    MSSimpleSpec,
    MSSpec,
    PDMSGolombSpec,
    PDMSSpec,
    SampledSpec,
    SortSpec,
    spec_class,
)
from .stream import BatchStream

__all__ = [
    "Cluster",
    "BatchStream",
    "SPECS",
    "spec_class",
    "SortSpec",
    "HQuickSpec",
    "FKMergeSpec",
    "SampledSpec",
    "MSSpec",
    "MSSimpleSpec",
    "PDMSSpec",
    "PDMSGolombSpec",
]
