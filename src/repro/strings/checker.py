"""Output checkers for sequential and distributed string sorting.

The distributed algorithms promise (Section V): after sorting, the strings on
PE ``i`` are locally sorted, larger than every string on PE ``i-1`` and
smaller than every string on PE ``i+1``; additionally the LCP array is
produced.  PDMS only guarantees the permutation *of distinguishing prefixes*
(Section VI), so it gets a dedicated checker that only compares prefixes.

Checkers raise :class:`SortCheckError` with a human-readable explanation on
failure (so benchmark/CI logs immediately say *what* went wrong) and return a
:class:`CheckReport` on success.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Sequence

from .lcp import verify_lcp_array

__all__ = [
    "SortCheckError",
    "CheckReport",
    "check_locally_sorted",
    "check_is_permutation",
    "check_distributed_sort",
    "check_prefix_permutation",
]


class SortCheckError(AssertionError):
    """Raised when a sorting-output check fails."""


@dataclass
class CheckReport:
    """Summary of a successful check (useful for logging in benchmarks)."""

    num_strings: int
    num_pes: int = 1
    notes: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:  # a report always signals success
        return True


def check_locally_sorted(strings: Sequence[bytes], what: str = "output") -> None:
    """Raise unless ``strings`` is in non-decreasing lexicographic order."""
    for i in range(1, len(strings)):
        if strings[i - 1] > strings[i]:
            raise SortCheckError(
                f"{what} not sorted at position {i}: "
                f"{strings[i-1]!r} > {strings[i]!r}"
            )


def check_is_permutation(
    inputs: Sequence[bytes], outputs: Sequence[bytes], what: str = "output"
) -> None:
    """Raise unless ``outputs`` is a multiset permutation of ``inputs``."""
    if len(inputs) != len(outputs):
        raise SortCheckError(
            f"{what}: expected {len(inputs)} strings, got {len(outputs)}"
        )
    cin = Counter(inputs)
    cout = Counter(outputs)
    if cin != cout:
        missing = list((cin - cout).keys())[:3]
        extra = list((cout - cin).keys())[:3]
        raise SortCheckError(
            f"{what} is not a permutation of the input; "
            f"missing e.g. {missing}, unexpected e.g. {extra}"
        )


def check_distributed_sort(
    inputs_per_pe: Sequence[Sequence[bytes]],
    outputs_per_pe: Sequence[Sequence[bytes]],
    lcps_per_pe: Sequence[Sequence[int]] | None = None,
) -> CheckReport:
    """Check the global output of MS/MS-simple/hQuick/FKmerge style sorters.

    Verifies, per the contract of Section V:

    1. each PE's output is locally sorted,
    2. PE boundaries are respected (last string of PE ``i`` <= first of PE
       ``i+1``), skipping empty PEs,
    3. the concatenated output is a permutation of the concatenated input,
    4. optionally, each PE's LCP array matches its local output.
    """
    p = len(outputs_per_pe)
    notes: List[str] = []
    for r, out in enumerate(outputs_per_pe):
        check_locally_sorted(out, what=f"PE {r} output")

    last_nonempty: bytes | None = None
    for r, out in enumerate(outputs_per_pe):
        if not out:
            notes.append(f"PE {r} received no strings")
            continue
        if last_nonempty is not None and last_nonempty > out[0]:
            raise SortCheckError(
                f"PE boundary violated before PE {r}: "
                f"{last_nonempty!r} > {out[0]!r}"
            )
        last_nonempty = out[-1]

    flat_in = [s for part in inputs_per_pe for s in part]
    flat_out = [s for part in outputs_per_pe for s in part]
    check_is_permutation(flat_in, flat_out, what="global output")

    if lcps_per_pe is not None:
        for r, (out, h) in enumerate(zip(outputs_per_pe, lcps_per_pe)):
            if not verify_lcp_array(out, h):
                raise SortCheckError(f"PE {r}: LCP array mismatch")

    return CheckReport(num_strings=len(flat_in), num_pes=p, notes=notes)


def check_prefix_permutation(
    inputs_per_pe: Sequence[Sequence[bytes]],
    output_prefixes_per_pe: Sequence[Sequence[bytes]],
) -> CheckReport:
    """Checker for PDMS, which permutes (approximate) distinguishing prefixes.

    PDMS does not move whole strings; each output entry is a prefix of some
    input string.  The checked conditions are:

    1. each PE's output prefixes are locally sorted,
    2. PE boundaries are respected under prefix comparison,
    3. the global multiset sizes agree and every output prefix is a prefix
       of a distinct (greedily multiset-matched) input string.

    Together they say the matched full strings are globally sorted *when
    compared only up to the transmitted prefix lengths* — exactly the
    guarantee PDMS gives — so the full strings' order needs no separate
    check.  Whether a prefix reaches its string's distinguishing prefix is
    not checked.
    """
    p = len(output_prefixes_per_pe)
    flat_in = [s for part in inputs_per_pe for s in part]
    flat_out = [s for part in output_prefixes_per_pe for s in part]
    if len(flat_in) != len(flat_out):
        raise SortCheckError(
            f"expected {len(flat_in)} output prefixes, got {len(flat_out)}"
        )

    for r, out in enumerate(output_prefixes_per_pe):
        check_locally_sorted(out, what=f"PE {r} prefix output")

    last: bytes | None = None
    for r, out in enumerate(output_prefixes_per_pe):
        if not out:
            continue
        if last is not None and last > out[0]:
            raise SortCheckError(f"PE prefix boundary violated before PE {r}")
        last = out[-1]

    # every output prefix must be matchable to a distinct input string of
    # which it is a prefix; greedy matching over sorted inputs suffices
    # because prefixes sort adjacent to their extensions.
    remaining = Counter(flat_in)
    for pref in flat_out:
        # exact input string equal to the prefix is the cheapest match
        if remaining.get(pref, 0) > 0:
            remaining[pref] -= 1
            continue
        for cand in list(remaining):
            if remaining[cand] > 0 and cand.startswith(pref):
                remaining[cand] -= 1
                break
        else:
            raise SortCheckError(
                f"output prefix {pref!r} does not match any remaining input string"
            )

    return CheckReport(num_strings=len(flat_in), num_pes=p)
