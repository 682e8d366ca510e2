"""Distributed string sorting algorithms (Sections IV-VI of the paper).

Layering (each module usable and testable on its own):

* :mod:`~repro.dist.partition` — regular sampling, splitter selection and
  bucket computation (pure per-PE helpers, Theorems 2/3);
* :mod:`~repro.dist.splitters` — the distributed splitter agreement
  protocol on top of them;
* :mod:`~repro.dist.exchange` — the all-to-all bucket exchange with
  optional LCP front coding;
* :mod:`~repro.dist.local_sort` — Step 1 of both rank programs, the local
  sort into a packed run;
* :mod:`~repro.dist.hquick` — hypercube quicksort, the atomic baseline;
* :mod:`~repro.dist.golomb` / :mod:`~repro.dist.duplicates` — Golomb-coded
  sorted sets and distributed fingerprint duplicate detection;
* :mod:`~repro.dist.prefix_doubling` — the DIST-prefix approximation;
* :mod:`~repro.dist.dn_estimator` — sampling-based D/N estimation for the
  ``auto`` algorithm;
* :mod:`~repro.dist.api` — the merge-sort SPMD rank program, which reads
  its knobs and stage switches off a :class:`~repro.session.SortSpec`, and the
  :class:`SortResult`/:class:`RankOutput` result shapes (callers sort
  through :class:`repro.session.Cluster`).
"""

from .api import (
    RankOutput,
    SortResult,
    distribute_strings,
    hquick_sort,
    merge_sort,
)
from .dn_estimator import DnEstimate, estimate_dn_ratio, recommend_algorithm
from .exchange import exchange_buckets
from .prefix_doubling import PrefixDoublingResult, approximate_dist_prefixes

__all__ = [
    "exchange_buckets",
    "RankOutput",
    "SortResult",
    "distribute_strings",
    "hquick_sort",
    "merge_sort",
    "DnEstimate",
    "estimate_dn_ratio",
    "recommend_algorithm",
    "PrefixDoublingResult",
    "approximate_dist_prefixes",
]
