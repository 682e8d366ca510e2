"""Instrumentation counters for the sequential string sorters and mergers.

The paper's theory is stated in terms of the number of characters inspected
(lower bound ``Omega(D)``, or ``Omega(D + n log n)`` for comparison-based
sorters).  The local sort and the merges optionally accept a
:class:`CharStats` object and report how many characters they looked at
and, for the merges, how many string comparisons they performed, so tests
and ablation benchmarks can verify that the implementations stay in the
expected regime (e.g. the LCP-aware merger inspects each distinguishing
character O(1) times while a naive merger rescans prefixes over and over).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CharStats"]


@dataclass
class CharStats:
    """Counts of work performed by a string sorting / merging routine."""

    chars_inspected: int = 0
    string_comparisons: int = 0
    bucket_passes: int = 0

    def add_chars(self, k: int) -> None:
        """Charge ``k`` inspected characters."""
        self.chars_inspected += k

    def merge(self, other: "CharStats") -> None:
        """Accumulate counters from a sub-computation."""
        self.chars_inspected += other.chars_inspected
        self.string_comparisons += other.string_comparisons
        self.bucket_passes += other.bucket_passes
