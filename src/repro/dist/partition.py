"""Regular sampling and bucket computation (Section V-A, Theorems 2 and 3).

All functions here are pure, per-PE helpers: they act on one rank's sorted
local string array and never touch the communicator, so Theorems 2/3 can be
unit-tested without a running machine.  :mod:`repro.dist.splitters` lifts
them into the distributed splitter-determination protocol.

Two regular sampling schemes are implemented:

* *string-based*: ``v`` samples at equidistant positions of the local array
  — bounds the number of **strings** per bucket (Theorem 2);
* *character-based*: ``v`` samples at equidistant positions of the local
  array's character mass (optionally with caller-supplied weights, e.g. the
  approximated distinguishing prefix lengths used by PDMS) — bounds the
  number of **characters** per bucket (Theorem 3), which is what keeps the
  skewed instances of Section VII-E balanced.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..strings.packed import PackedStringArray, packed_bucket_boundaries

__all__ = [
    "string_based_samples",
    "character_based_samples",
    "select_splitters",
    "split_into_buckets",
]


def string_based_samples(sorted_strings: Sequence[bytes], v: int) -> List[bytes]:
    """``v`` regular samples of a sorted local array (Theorem 2's scheme).

    Sample ``k`` sits at position ``(k+1)·n/(v+1)`` (1-based), i.e. the
    samples split the local array into ``v+1`` equal parts.  Small arrays
    yield repeated samples rather than fewer of them, so every PE always
    contributes exactly ``v`` samples to the global sample.
    """
    n = len(sorted_strings)
    if n == 0 or v <= 0:
        return []
    return [
        sorted_strings[max(0, ((k + 1) * n) // (v + 1) - 1)] for k in range(v)
    ]


def character_based_samples(
    sorted_strings: Sequence[bytes],
    v: int,
    weights: Optional[Sequence[int]] = None,
) -> List[bytes]:
    """``v`` samples at equidistant positions of the character mass (Theorem 3).

    ``weights`` defaults to the string lengths; PDMS passes the approximated
    distinguishing prefix lengths instead so that splitters balance the data
    that is actually communicated.  All-zero weights fall back to
    string-based sampling.  The cumulative mass is one ``cumsum`` and all
    ``v`` sample positions fall out of a single ``searchsorted``.
    """
    arr = PackedStringArray.from_strings(sorted_strings)
    n = len(arr)
    if weights is not None and len(weights) != n:
        raise ValueError(
            f"weights length {len(weights)} != number of strings {n}"
        )
    if n == 0 or v <= 0:
        return []
    mass = arr.lengths if weights is None else np.asarray(weights, dtype=np.int64)
    cumulative = np.cumsum(mass)
    total = int(cumulative[-1])
    if total <= 0:
        return string_based_samples(arr, v)
    targets = (np.arange(1, v + 1, dtype=np.int64) * total) // (v + 1)
    idx = np.minimum(n - 1, np.searchsorted(cumulative, targets, side="right"))
    return [arr[int(i)] for i in idx]


def select_splitters(sorted_sample: Sequence[bytes], parts: int) -> List[bytes]:
    """``parts - 1`` splitters at equidistant ranks of the global sorted sample."""
    m = len(sorted_sample)
    if parts <= 1 or m == 0:
        return []
    return [
        sorted_sample[min(m - 1, max(0, ((j + 1) * m) // parts - 1))]
        for j in range(parts - 1)
    ]


def split_into_buckets(
    sorted_strings: Sequence[bytes],
    lcps: Sequence[int],
    splitters: Sequence[bytes],
) -> List[Tuple[PackedStringArray, np.ndarray]]:
    """Cut a sorted local array (with LCP array) into per-destination buckets.

    The LCP values inside a bucket stay valid because the bucket is a
    contiguous run; only the first entry is reset to 0 (its predecessor goes
    to a different PE).

    The buckets are **zero-copy views** of the packed local array (shared
    character buffer, narrowed offsets) paired with ``int64`` LCP slices —
    no string data is moved until the exchange serialises it.
    """
    arr = PackedStringArray.from_strings(sorted_strings)
    if len(arr) != len(lcps):
        raise ValueError(
            f"strings ({len(arr)}) and lcps ({len(lcps)}) must have equal length"
        )
    bounds = packed_bucket_boundaries(arr, splitters)
    lcps_np = np.asarray(lcps, dtype=np.int64)
    buckets: List[Tuple[PackedStringArray, np.ndarray]] = []
    for lo, hi in zip(bounds, bounds[1:]):
        bucket_lcps = lcps_np[lo:hi].copy()
        if bucket_lcps.size:
            bucket_lcps[0] = 0
        buckets.append((arr[lo:hi], bucket_lcps))
    return buckets
