"""The output check of ``Cluster.sort(check=True)``: every PE's result
against ``sorted()`` of all inputs.

:func:`check_sort` holds a sort's per-PE results to the paper's contracts:

* **Full sorts** (Section V): the PEs' runs back to back must equal
  ``sorted()`` of all inputs — one comparison that checks local order, the
  PE boundaries and the permutation together — and every LCP array a PE
  returns must be the LCP array of its run.
* **PDMS** (Section VI) returns approximate distinguishing prefixes, each
  labelled with its origin: the source PE and the position in that PE's
  sorted input block.  The origins must name every position of every sorted
  block exactly once, each output must be a prefix of its origin's string
  at least as long as that string's ``DIST``, and the origin strings in
  output order must equal ``sorted()`` of all inputs.

``sorted()`` shares no code with the kernels under test, so it is an
independent oracle.  A failed check raises :class:`SortCheckError` naming the
PE and the position where it failed.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

from .lcp import _dist_of_sorted_packed
from .packed import PackedStringArray, concat_runs, packed_lcp_array, take, truncate

__all__ = ["SortCheckError", "check_sort"]


class SortCheckError(AssertionError):
    """Raised when a sort's output breaks its contract."""


def _first_difference(a: PackedStringArray, b: PackedStringArray) -> Optional[int]:
    """Index of the first string where two arrays differ (``None``: equal).

    Both arrays start at offset 0.  Up to the first length mismatch the
    strings sit at the same offsets, so one byte comparison finds the first
    differing string before it.
    """
    n = min(len(a), len(b))
    bad_length = np.flatnonzero(a.lengths[:n] != b.lengths[:n])
    stop = int(bad_length[0]) if len(bad_length) else n
    end = int(a.offsets[stop])
    bad_byte = np.flatnonzero(a.buffer[:end] != b.buffer[:end])
    if len(bad_byte):
        return int(np.searchsorted(a.offsets, bad_byte[0], side="right")) - 1
    return stop if stop < max(len(a), len(b)) else None


def check_sort(
    inputs_per_pe: Sequence[Sequence[bytes]], rank_outputs: Sequence[Any]
) -> None:
    """Raise :class:`SortCheckError` unless ``rank_outputs`` sort ``inputs_per_pe``.

    ``rank_outputs[r]`` is PE ``r``'s result: a packed run ``strings``, its
    ``int64`` ``lcps`` or ``None``, and PDMS's ``(n, 2)`` ``origins`` or
    ``None``.  Results with origins on any PE are held to the PDMS contract.
    """
    expected = PackedStringArray.from_strings(
        sorted([s for block in inputs_per_pe for s in block])
    )
    outputs, bounds = concat_runs([out.strings for out in rank_outputs])

    def where(k: int) -> str:
        r = min(int(np.searchsorted(bounds, k, side="right")) - 1, len(rank_outputs) - 1)
        return f"PE {r} position {k - int(bounds[r])}"

    if any(out.origins is not None for out in rank_outputs):
        full = _origin_strings(inputs_per_pe, rank_outputs, where)
        k = _first_difference(full, expected)
        if k is not None:
            raise SortCheckError(
                f"{where(k)}: origin string {full[k]!r} where sorted() has {expected[k]!r}"
            )
        short = np.flatnonzero(outputs.lengths < _dist_of_sorted_packed(expected))
        if len(short):
            k = int(short[0])
            raise SortCheckError(
                f"{where(k)}: prefix {outputs[k]!r} is shorter than the DIST of {full[k]!r}"
            )
        # an output longer than its origin string is longer than the truncation
        k = _first_difference(outputs, truncate(full, outputs.lengths))
        if k is not None:
            raise SortCheckError(
                f"{where(k)}: {outputs[k]!r} is no prefix of its origin's {full[k]!r}"
            )
        return

    k = _first_difference(outputs, expected)
    if k is not None:
        got = outputs[k] if k < len(outputs) else "the end of the output"
        want = expected[k] if k < len(expected) else "the end of the input"
        raise SortCheckError(f"{where(k)}: output {got!r} where sorted() has {want!r}")
    for r, out in enumerate(rank_outputs):
        if out.lcps is None:
            continue
        if len(out.lcps) != len(out.strings):
            raise SortCheckError(
                f"PE {r}: {len(out.lcps)} LCPs for {len(out.strings)} strings"
            )
        bad = np.flatnonzero(out.lcps != packed_lcp_array(out.strings))
        if len(bad):
            raise SortCheckError(
                f"PE {r} position {int(bad[0])}: LCP {int(out.lcps[bad[0]])} is wrong"
            )


def _origin_strings(
    inputs_per_pe: Sequence[Sequence[bytes]],
    rank_outputs: Sequence[Any],
    where: Callable[[int], str],
) -> PackedStringArray:
    """The strings PDMS's origins name, in output order, once the origins
    are checked to name every position of every sorted input block once."""
    for r, out in enumerate(rank_outputs):
        named = 0 if out.origins is None else len(out.origins)
        if named != len(out.strings):
            raise SortCheckError(f"PE {r}: {named} origins for {len(out.strings)} prefixes")
    origins = np.concatenate([out.origins for out in rank_outputs if out.origins is not None])
    sizes = np.array([len(block) for block in inputs_per_pe], dtype=np.int64)
    src, pos = origins[:, 0], origins[:, 1]
    valid = (src >= 0) & (src < len(sizes)) & (pos >= 0)
    valid &= pos < sizes[np.clip(src, 0, len(sizes) - 1)]
    if not valid.all():
        k = int(np.argmin(valid))
        raise SortCheckError(f"{where(k)}: origin {tuple(origins[k].tolist())} names no input")
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    flat = starts[src] + pos
    repeated = np.ones(len(flat), dtype=bool)
    repeated[np.unique(flat, return_index=True)[1]] = False
    if repeated.any():
        k = int(np.argmax(repeated))
        raise SortCheckError(f"{where(k)}: origin {tuple(origins[k].tolist())} is named twice")
    if len(flat) != int(sizes.sum()):
        missing = int(np.argmin(np.isin(np.arange(int(sizes.sum())), flat)))
        r = int(np.searchsorted(starts, missing, side="right")) - 1
        raise SortCheckError(
            f"PE {r}'s sorted block position {missing - int(starts[r])} is named by no origin"
        )
    blocks = PackedStringArray.from_strings(
        [s for block in inputs_per_pe for s in sorted(block)]
    )
    return take(blocks, flat)
