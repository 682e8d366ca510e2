"""String containers used throughout the library.

The paper (Section II) models the input as an array ``S = [s0, ..., s_{n-1}]``
of ``n`` strings with total length ``N``.  Strings are sequences of characters
over an alphabet of size ``sigma`` terminated by a character 0 that is outside
the alphabet.  A PE holds its strings as one character array plus an array
of pointers, so that entire strings can be moved in constant time.

:class:`StringSet` wraps one :class:`~repro.strings.packed.PackedStringArray`
— exactly that layout — and keeps its total length ``N`` and a sorted copy
at hand, which the input statistics of the benchmark harness (``D/N``, mean
LCP) read repeatedly.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .packed import PackedStringArray, packed_sort, validate_strings

__all__ = [
    "StringSet",
    "validate_strings",
]


class StringSet:
    """A string array, held packed, with ``N`` and its sorted copy at hand.

    Parameters
    ----------
    strings:
        A :class:`~repro.strings.packed.PackedStringArray` (adopted without
        a copy) or any iterable of ``bytes``/``str`` (validated and packed
        once).
    """

    def __init__(self, strings: Iterable[object]):
        #: the packed strings
        self.strings = PackedStringArray.from_strings(validate_strings(strings))
        self._sorted_packed: Optional[PackedStringArray] = None

    # -- basic container protocol ------------------------------------------------
    def __len__(self) -> int:
        return len(self.strings)

    def __iter__(self) -> Iterator[bytes]:
        return iter(self.strings)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return StringSet(self.strings[idx])
        return self.strings[idx]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StringSet):
            return self.strings == other.strings
        if isinstance(other, list):
            return self.strings == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = ", ".join(repr(self.strings[i]) for i in range(min(4, len(self))))
        more = "" if len(self) <= 4 else f", ... ({len(self)} strings)"
        return f"StringSet([{preview}{more}])"

    # -- statistics from Table I --------------------------------------------------
    @property
    def num_chars(self) -> int:
        """``N`` — total number of characters."""
        return self.strings.num_chars

    # -- sorted representation ------------------------------------------------------
    def sorted_packed(self) -> PackedStringArray:
        """Lexicographically sorted packed copy, computed once and cached.

        :func:`repro.strings.lcp.merge_lcp_statistics` and
        :func:`repro.strings.lcp.distinguishing_prefix_size` use this hook so
        that the bench harness can ask for input statistics repeatedly
        without re-sorting the full corpus on every call.
        """
        if self._sorted_packed is None:
            self._sorted_packed = packed_sort(self.strings)
        return self._sorted_packed
