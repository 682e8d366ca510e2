"""String containers used throughout the library.

The paper (Section II) models the input as an array ``S = [s0, ..., s_{n-1}]``
of ``n`` strings with total length ``N``.  Strings are sequences of characters
over an alphabet of size ``sigma`` terminated by a character 0 that is outside
the alphabet.  String arrays are represented as arrays of pointers so that
entire strings can be moved in constant time; in Python we get the same
property for free because a list of ``bytes`` objects only moves references.

:class:`StringSet` wraps a list of ``bytes`` and caches the aggregate
statistics from Table I of the paper (``n``, ``N``, ``sigma``, ``l_hat`` ...),
which the partitioning code and the benchmark harness need repeatedly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence

from .packed import PackedStringArray, packed_sort

__all__ = [
    "StringSet",
    "concat_size",
    "effective_alphabet",
    "max_length",
    "validate_strings",
]


def concat_size(strings: Sequence[bytes]) -> int:
    """Total number of characters ``N`` of a string array (excluding terminators)."""
    return sum(len(s) for s in strings)


def max_length(strings: Sequence[bytes]) -> int:
    """Length ``l_hat`` of the longest string, 0 for an empty set."""
    return max((len(s) for s in strings), default=0)


def effective_alphabet(strings: Sequence[bytes]) -> int:
    """Number of distinct byte values appearing in the input (``sigma``)."""
    seen = set()
    for s in strings:
        seen.update(s)
    return len(seen)


def validate_strings(strings: Iterable[object]) -> List[bytes]:
    """Coerce an iterable of ``str``/``bytes`` into a list of ``bytes``.

    ``str`` values are encoded as UTF-8.  Any other type raises ``TypeError``
    so that errors surface at the API boundary instead of deep inside a
    sorting routine.  When every element is exactly ``bytes``, the list is
    built and checked with C-level iteration only.
    """
    strings = list(strings)
    if set(map(type, strings)) <= {bytes}:
        return strings
    out: List[bytes] = []
    for s in strings:
        if isinstance(s, bytes):
            out.append(s)
        elif isinstance(s, bytearray):
            out.append(bytes(s))
        elif isinstance(s, str):
            out.append(s.encode("utf-8"))
        else:
            raise TypeError(
                f"strings must be bytes or str, got {type(s).__name__!r}"
            )
    return out


@dataclass
class StringSet:
    """A set (array) of strings together with cached Table-I statistics.

    Parameters
    ----------
    strings:
        The underlying list of byte strings.  The list is *not* copied; the
        caller hands over ownership.

    Notes
    -----
    The container is deliberately thin: the distributed algorithms work on
    plain ``list[bytes]`` per PE for speed, and use :class:`StringSet` at API
    boundaries and in the benchmark harness where the cached statistics
    (``num_chars``, ``max_len`` ...) are needed.
    """

    strings: List[bytes]

    def __post_init__(self) -> None:
        packed: Optional[PackedStringArray] = None
        if isinstance(self.strings, PackedStringArray):
            # packed boundary: adopt the buffer for the vectorized paths and
            # materialise the list view once for the list-level APIs
            packed = self.strings
            self.strings = packed.to_list()
        else:
            self.strings = validate_strings(self.strings)
        self._num_chars: int | None = None
        self._max_len: int | None = None
        self._alphabet: int | None = None
        self._packed: Optional[PackedStringArray] = packed
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
        preview = ", ".join(repr(s) for s in self.strings[:4])
        more = "" if len(self) <= 4 else f", ... ({len(self)} strings)"
        return f"StringSet([{preview}{more}])"

    # -- statistics from Table I --------------------------------------------------
    @property
    def num_strings(self) -> int:
        """``n`` — number of strings."""
        return len(self.strings)

    @property
    def num_chars(self) -> int:
        """``N`` — total number of characters."""
        if self._num_chars is None:
            if self._packed is not None:
                self._num_chars = self._packed.num_chars
            else:
                self._num_chars = concat_size(self.strings)
        return self._num_chars

    @property
    def max_len(self) -> int:
        """``l_hat`` — length of the longest string."""
        if self._max_len is None:
            if self._packed is not None:
                self._max_len = self._packed.max_len
            else:
                self._max_len = max_length(self.strings)
        return self._max_len

    @property
    def alphabet_size(self) -> int:
        """``sigma`` — number of distinct characters present in the input."""
        if self._alphabet is None:
            self._alphabet = effective_alphabet(self.strings)
        return self._alphabet

    @property
    def average_length(self) -> float:
        """Average string length ``N / n`` (0 for an empty set)."""
        if not self.strings:
            return 0.0
        return self.num_chars / len(self.strings)

    # -- packed representation ------------------------------------------------------
    def packed(self) -> PackedStringArray:
        """The packed (contiguous buffer + offsets) view of this set, cached."""
        if self._packed is None:
            self._packed = PackedStringArray.from_strings(self.strings)
        return self._packed

    def sorted_packed(self) -> PackedStringArray:
        """Lexicographically sorted packed copy, computed once and cached.

        :func:`repro.strings.lcp.merge_lcp_statistics` and
        :func:`repro.strings.lcp.distinguishing_prefix_size` use this hook so
        that the bench harness can ask for input statistics repeatedly
        without re-sorting the full corpus on every call.
        """
        if self._sorted_packed is None:
            self._sorted_packed = packed_sort(self.packed())
        return self._sorted_packed

    # -- operations ----------------------------------------------------------------
    def sorted(self) -> "StringSet":
        """Return a new, lexicographically sorted :class:`StringSet`."""
        return StringSet(sorted(self.strings))

    def is_sorted(self) -> bool:
        """``True`` iff the strings are in non-decreasing lexicographic order."""
        ss = self.strings
        return all(ss[i - 1] <= ss[i] for i in range(1, len(ss)))

    def split_round_robin(self, parts: int) -> List["StringSet"]:
        """Deal strings round-robin into ``parts`` sets (used by tests)."""
        if parts <= 0:
            raise ValueError("parts must be positive")
        buckets: List[List[bytes]] = [[] for _ in range(parts)]
        for i, s in enumerate(self.strings):
            buckets[i % parts].append(s)
        return [StringSet(b) for b in buckets]

    def split_blocks(self, parts: int) -> List["StringSet"]:
        """Split into ``parts`` contiguous blocks of (nearly) equal string count."""
        if parts <= 0:
            raise ValueError("parts must be positive")
        n = len(self.strings)
        out: List[StringSet] = []
        for i in range(parts):
            lo = i * n // parts
            hi = (i + 1) * n // parts
            out.append(StringSet(self.strings[lo:hi]))
        return out

    def split_by_chars(self, parts: int) -> List["StringSet"]:
        """Split into ``parts`` contiguous blocks balancing *characters*.

        This mirrors how the paper distributes the COMMONCRAWL and DNAREADS
        inputs over PEs ("split such that each PE gets about the same number
        of characters", Section VII-A).
        """
        if parts <= 0:
            raise ValueError("parts must be positive")
        total = self.num_chars
        target = total / parts if parts else 0
        out: List[List[bytes]] = [[] for _ in range(parts)]
        acc = 0
        part = 0
        for s in self.strings:
            # move to the next part once the running total passes the boundary,
            # but never beyond the last part
            while part < parts - 1 and acc >= (part + 1) * target:
                part += 1
            out[part].append(s)
            acc += len(s)
        return [StringSet(b) for b in out]

    def concat(self, other: "StringSet") -> "StringSet":
        """Concatenation of two string sets."""
        return StringSet(self.strings + other.strings)
