"""Adversarial test inputs: heavy duplication, the Thue–Morse word and
blocks behind one shared prefix.

None is a workload of the paper's evaluation; the tests feed them to the
sorters, the duplicate detection and the splitter machinery to exercise
ties, zero-length LCP remainders and hash collisions, and to the merge's
word radix, which takes runs that share a prefix of a word or more.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.strings.generators import random_strings

__all__ = ["duplicate_heavy", "shared_prefix", "thue_morse"]


def duplicate_heavy(
    num_strings: int,
    num_distinct: int = 50,
    length: int = 20,
    seed: Optional[int] = None,
) -> List[bytes]:
    """Input with many exactly repeated strings.

    The paper notes that FKmerge crashes on inputs with many repeated strings
    (Section VII-D); this generator checks that our implementations handle
    heavy duplication (ties in splitters, zero-length LCP remainders).
    """
    rng = np.random.default_rng(seed)
    distinct = random_strings(num_distinct, length, length, seed=seed)
    picks = rng.integers(0, num_distinct, size=num_strings)
    return [distinct[int(i)] for i in picks]


def thue_morse(num_strings: int, length: int = 1024, seed: Optional[int] = None) -> List[bytes]:
    """Windows of the Thue–Morse word over ``{a, b}`` at random offsets: the
    adversary of polynomial hashing modulo ``2^64`` (an aligned block of 2048
    characters and its complement collide for every odd base), with long
    shared prefixes and verbatim repeats."""
    rng = np.random.default_rng(seed)
    word = np.zeros(1, dtype=np.uint8)
    while word.size < 4 * length + num_strings:
        word = np.concatenate([word, word ^ 1])
    text = (word + ord("a")).tobytes()
    starts = rng.integers(0, word.size - length + 1, size=num_strings)
    return [text[s : s + length] for s in starts.tolist()]


def shared_prefix(
    num_strings: int, prefix: bytes = b"shared/prefix/16", seed: Optional[int] = None
) -> List[bytes]:
    """``prefix`` followed by a random tail of 0 to 12 letters of ``{a, b,
    c}``: every string shares the prefix, tails end on and off word
    boundaries, and short tails repeat verbatim."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, 13, size=num_strings)
    letters = rng.integers(ord("a"), ord("d"), size=int(lengths.sum()), dtype=np.uint8)
    ends = np.cumsum(lengths).tolist()
    text = letters.tobytes()
    return [prefix + text[e - n : e] for e, n in zip(ends, lengths.tolist())]
