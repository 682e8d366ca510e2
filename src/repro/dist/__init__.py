"""Distributed string sorting algorithms (Sections IV-VI of the paper).

Layering (each module usable and testable on its own):

* :mod:`~repro.dist.partition` — regular sampling, splitter selection and
  bucket computation (pure per-PE helpers, Theorems 2/3);
* :mod:`~repro.dist.splitters` — the distributed splitter agreement
  protocol on top of them;
* :mod:`~repro.dist.exchange` — the all-to-all bucket exchange with
  optional LCP front coding;
* :mod:`~repro.dist.hquick` — hypercube quicksort, the atomic baseline;
* :mod:`~repro.dist.golomb` / :mod:`~repro.dist.duplicates` — Golomb-coded
  sorted sets and distributed fingerprint duplicate detection;
* :mod:`~repro.dist.prefix_doubling` — the DIST-prefix approximation;
* :mod:`~repro.dist.dn_estimator` — sampling-based D/N estimation for the
  ``auto`` algorithm;
* :mod:`~repro.dist.api` — the per-algorithm SPMD rank programs, which read
  their knobs off a :class:`~repro.session.SortSpec`, and the
  :class:`SortResult`/:class:`RankOutput` result shapes (callers sort
  through :class:`repro.session.Cluster`).
"""

from .api import (
    RankOutput,
    SortResult,
    distribute_strings,
    fkmerge_sort,
    hquick_sort,
    ms_sort,
    pdms_sort,
)
from .dn_estimator import DnEstimate, estimate_dn_ratio, recommend_algorithm
from .exchange import (
    async_exchange_enabled,
    exchange_buckets,
    exchange_buckets_async,
    exchange_topology_name,
    set_async_exchange,
    set_exchange_topology,
    use_async_exchange,
    use_exchange_topology,
)
from .prefix_doubling import PrefixDoublingResult, approximate_dist_prefixes

__all__ = [
    "async_exchange_enabled",
    "exchange_buckets",
    "exchange_buckets_async",
    "set_async_exchange",
    "use_async_exchange",
    "exchange_topology_name",
    "set_exchange_topology",
    "use_exchange_topology",
    "RankOutput",
    "SortResult",
    "distribute_strings",
    "fkmerge_sort",
    "hquick_sort",
    "ms_sort",
    "pdms_sort",
    "DnEstimate",
    "estimate_dn_ratio",
    "recommend_algorithm",
    "PrefixDoublingResult",
    "approximate_dist_prefixes",
]
