"""Workload generators for the paper's evaluation inputs (Section VII-A).

The paper evaluates on

* the synthetic **D/N** family with tunable ratio ``r = D/N`` (string length
  500): the *i*-th string is "an appropriate number of repetitions of the
  first character of the alphabet, followed by a base-sigma encoding of *i*,
  followed by further characters to achieve the desired string length".
  ``r = 0`` means the counter starts immediately, ``r = 1`` means the counter
  ends at the end of the string;
* **COMMONCRAWL** — 82 GB of web-page text dumps, one line per string,
  D/N = 0.68, alphabet 242, average line 40 chars, average LCP 23.9 (60 %);
* **DNAREADS** — 125 GB of DNA reads over {A,C,G,T}, average read 98.7 base
  pairs, D/N = 0.38, average LCP 29.2 (30 %);
* a **suffix** instance (all suffixes of a Wikipedia prefix, D/N ≈ 1e-4);
* a **skewed** variant of D/N where the 20 % smallest strings are padded to
  4× the length without contributing to the distinguishing prefix.

We cannot ship the proprietary/real corpora, so :func:`commoncrawl_like` and
:func:`dna_reads` generate synthetic corpora calibrated to the statistics that
drive the algorithms (D/N ratio, LCP fraction, alphabet size, duplicate
lines).  The D/N, skewed and suffix instances are direct reimplementations of
the paper's constructions.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

__all__ = [
    "dn_instance",
    "skewed_dn_instance",
    "dn_instance_for_pes",
    "random_strings",
    "commoncrawl_like",
    "dna_reads",
    "suffix_instance",
    "duplicate_heavy",
    "thue_morse",
    "GeneratorSpec",
    "make_generator",
]

# Printable alphabet used by the D/N instances, in ascending byte order so
# that the base-sigma counter encoding preserves numeric order
# lexicographically.  The first character plays the role of the repeated
# filler ("first character of Sigma" in the paper).
_DN_ALPHABET = bytes(
    sorted(
        bytes(range(ord("0"), ord("0") + 10))
        + bytes(range(ord("A"), ord("A") + 26))
        + bytes(range(ord("a"), ord("a") + 26))
    )
)


def _encode_base_sigma(value: int, alphabet: bytes, width: int) -> bytes:
    """Base-``len(alphabet)`` encoding of ``value`` padded to ``width`` digits."""
    sigma = len(alphabet)
    digits = bytearray()
    v = value
    while v > 0:
        digits.append(alphabet[v % sigma])
        v //= sigma
    while len(digits) < width:
        digits.append(alphabet[0])
    digits.reverse()
    return bytes(digits)


def dn_instance(
    num_strings: int,
    dn: float,
    length: int = 500,
    alphabet: bytes = _DN_ALPHABET,
    seed: Optional[int] = None,
    shuffle: bool = True,
) -> List[bytes]:
    """The paper's D/N instance with tunable ratio ``r = D/N``.

    Parameters
    ----------
    num_strings:
        Number of strings to generate.
    dn:
        Target ``D/N`` ratio in ``[0, 1]``.  ``0`` places the distinguishing
        counter at the very start of each string, ``1`` at the very end.
    length:
        Length of every string (the paper uses 500).
    alphabet:
        Alphabet to draw characters from; its first character is the filler.
    seed:
        Seed for the trailing filler characters and the final shuffle.
    shuffle:
        The strings are generated in counter order; the paper distributes the
        D/N strings randomly over PEs, which we emulate with a global shuffle.
    """
    if not 0.0 <= dn <= 1.0:
        raise ValueError("dn must be in [0, 1]")
    if length <= 0:
        raise ValueError("length must be positive")
    sigma = len(alphabet)
    counter_width = max(1, math.ceil(math.log(max(num_strings, 2), sigma)))
    counter_width = min(counter_width, length)

    # prefix of repeated filler characters: its length controls where the
    # counter (the only distinguishing part) sits inside the string
    max_prefix = length - counter_width
    prefix_len = int(round(dn * max_prefix))
    prefix = bytes([alphabet[0]]) * prefix_len

    rng = np.random.default_rng(seed)
    suffix_len = length - prefix_len - counter_width
    if suffix_len > 0:
        # one shared random tail keeps D/N exact: the tail never distinguishes
        tail_idx = rng.integers(0, sigma, size=suffix_len)
        tail = bytes(alphabet[int(i)] for i in tail_idx)
    else:
        tail = b""

    out: List[bytes] = []
    for i in range(num_strings):
        counter = _encode_base_sigma(i, alphabet, counter_width)
        out.append(prefix + counter + tail)

    if shuffle:
        perm = rng.permutation(num_strings)
        out = [out[int(j)] for j in perm]
    return out


def skewed_dn_instance(
    num_strings: int,
    dn: float,
    length: int = 500,
    pad_factor: int = 4,
    pad_fraction: float = 0.2,
    alphabet: bytes = _DN_ALPHABET,
    seed: Optional[int] = None,
) -> List[bytes]:
    """Skewed D/N variant from Section VII-E.

    The ``pad_fraction`` (20 %) lexicographically smallest strings are padded
    with extra filler characters to ``pad_factor`` (4×) their length without
    contributing to the distinguishing prefixes.  This skews the *output*
    string length distribution and stresses character-based sampling.
    """
    base = dn_instance(num_strings, dn, length, alphabet, seed=seed, shuffle=False)
    base.sort()
    cutoff = int(len(base) * pad_fraction)
    pad = bytes([alphabet[0]]) * (length * (pad_factor - 1))
    out = [s + pad if i < cutoff else s for i, s in enumerate(base)]
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(out))
    return [out[int(j)] for j in perm]


def dn_instance_for_pes(
    num_pes: int,
    strings_per_pe: int,
    dn: float,
    length: int = 500,
    seed: Optional[int] = None,
) -> List[List[bytes]]:
    """Generate the weak-scaling D/N input already partitioned over PEs.

    The paper generates 500 000 strings of length 500 *per PE* and
    distributes them randomly.  The return value is a list of per-PE string
    lists (the shuffled global instance dealt into equal blocks).
    """
    total = num_pes * strings_per_pe
    strings = dn_instance(total, dn, length, seed=seed, shuffle=True)
    return [
        strings[r * strings_per_pe : (r + 1) * strings_per_pe] for r in range(num_pes)
    ]


def random_strings(
    num_strings: int,
    min_len: int = 1,
    max_len: int = 30,
    alphabet_size: int = 26,
    seed: Optional[int] = None,
) -> List[bytes]:
    """Uniformly random strings; the workhorse input for unit/property tests."""
    if min_len < 0 or max_len < min_len:
        raise ValueError("invalid length range")
    rng = np.random.default_rng(seed)
    lengths = rng.integers(min_len, max_len + 1, size=num_strings)
    total = int(lengths.sum())
    chars = rng.integers(ord("a"), ord("a") + alphabet_size, size=total, dtype=np.uint8)
    out: List[bytes] = []
    pos = 0
    buf = chars.tobytes()
    for ln in lengths:
        ln = int(ln)
        out.append(buf[pos : pos + ln])
        pos += ln
    return out


# ---------------------------------------------------------------------------
# COMMONCRAWL-like synthetic web text
# ---------------------------------------------------------------------------

_WEB_MARKUP = [
    b"<html>",
    b"<head>",
    b"<title>",
    b"</div>",
    b"<p class=\"content\">",
    b"http://www.",
    b"https://",
    b"Copyright (c) ",
    b"All rights reserved.",
    b"<a href=\"/index.html\">",
    b"<meta charset=\"utf-8\">",
    b"&nbsp;",
]


def _zipf_word_vocabulary(rng: np.random.Generator, vocab_size: int) -> List[bytes]:
    """A vocabulary of pseudo-words with natural-language-like lengths."""
    vowels = b"aeiou"
    consonants = b"bcdfghjklmnpqrstvwxyz"
    words: List[bytes] = []
    for _ in range(vocab_size):
        syllables = int(rng.integers(1, 4))
        w = bytearray()
        for _ in range(syllables):
            w.append(consonants[int(rng.integers(0, len(consonants)))])
            w.append(vowels[int(rng.integers(0, len(vowels)))])
            if rng.random() < 0.4:
                w.append(consonants[int(rng.integers(0, len(consonants)))])
        words.append(bytes(w))
    return words


def commoncrawl_like(
    num_strings: int,
    avg_len: int = 40,
    vocab_size: int = 4000,
    duplicate_fraction: float = 0.45,
    markup_fraction: float = 0.35,
    unicode_fraction: float = 0.08,
    seed: Optional[int] = None,
) -> List[bytes]:
    """Synthetic substitute for the COMMONCRAWL input.

    The generator produces web-dump-like lines: Zipf-distributed words, a
    sizeable fraction of boiler-plate/markup lines that repeat verbatim
    (duplicates), and shared line prefixes — yielding a high D/N ratio
    (≈ 0.6–0.8), a large effective alphabet, ≈40-character lines and long
    LCPs, matching the statistics the paper reports (D/N = 0.68, average line
    40 chars, average LCP 60 % of the line).
    """
    rng = np.random.default_rng(seed)
    vocab = _zipf_word_vocabulary(rng, vocab_size)
    # Zipf ranks: probability ~ 1/rank
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    probs = 1.0 / ranks
    probs /= probs.sum()

    # a pool of boiler-plate lines that will be repeated verbatim
    boilerplate: List[bytes] = []
    for i in range(64):
        head = _WEB_MARKUP[i % len(_WEB_MARKUP)]
        words = rng.choice(vocab_size, size=4, p=probs)
        line = head + b" " + b" ".join(vocab[int(w)] for w in words)
        boilerplate.append(line)

    out: List[bytes] = []
    for _ in range(num_strings):
        u = rng.random()
        if u < duplicate_fraction:
            out.append(boilerplate[int(rng.integers(0, len(boilerplate)))])
            continue
        line = bytearray()
        if rng.random() < markup_fraction:
            line += _WEB_MARKUP[int(rng.integers(0, len(_WEB_MARKUP)))]
            line += b" "
        target = max(5, int(rng.normal(avg_len, avg_len * 0.35)))
        while len(line) < target:
            w = vocab[int(rng.choice(vocab_size, p=probs))]
            line += w
            if rng.random() < unicode_fraction:
                # non-ASCII bytes (UTF-8 encoded text fragments) drive the
                # large effective alphabet (242) of the real COMMONCRAWL dump
                line += bytes([int(rng.integers(0xC2, 0xDF)), int(rng.integers(0x80, 0xBF))])
            if rng.random() < 0.15:
                line += b", "
            else:
                line += b" "
        out.append(bytes(line[:target]))
    return out


def dna_reads(
    num_strings: int,
    read_len: int = 99,
    genome_len: Optional[int] = None,
    error_rate: float = 0.007,
    repeat_fraction: float = 0.5,
    num_repeat_sites: int = 40,
    seed: Optional[int] = None,
) -> List[bytes]:
    """Synthetic substitute for the DNAREADS input.

    Reads of (roughly) fixed length are sampled from a random reference
    genome with a small per-base error rate.  A ``repeat_fraction`` of the
    reads starts at one of a few repeat "hotspots" — mimicking the repetitive
    regions and duplicate reads of real WGS data that give the paper's
    DNAREADS corpus its D/N of 0.38 and an average LCP of ~30 % of a read —
    while the remaining reads start at uniformly random positions (D/N of the
    generated corpus lands in the 0.3–0.45 band for the default parameters).
    """
    rng = np.random.default_rng(seed)
    bases = np.frombuffer(b"ACGT", dtype=np.uint8)
    if genome_len is None:
        # coverage of roughly 8x keeps read overlaps realistic
        genome_len = max(read_len * 4, num_strings * read_len // 8)
    genome = bases[rng.integers(0, 4, size=genome_len)]

    max_start = max(1, genome_len - read_len)
    hotspot_positions = rng.integers(0, max_start, size=max(1, num_repeat_sites))

    out: List[bytes] = []
    from_hotspot = rng.random(num_strings) < repeat_fraction
    uniform_starts = rng.integers(0, max_start, size=num_strings)
    hotspot_picks = rng.integers(0, len(hotspot_positions), size=num_strings)
    for i in range(num_strings):
        st = int(hotspot_positions[hotspot_picks[i]]) if from_hotspot[i] else int(uniform_starts[i])
        read = genome[st : st + read_len].copy()
        if error_rate > 0:
            errs = rng.random(read.shape[0]) < error_rate
            if errs.any():
                read[errs] = bases[rng.integers(0, 4, size=int(errs.sum()))]
        out.append(read.tobytes())
    return out


def suffix_instance(
    text_len: int = 20000,
    alphabet_size: int = 26,
    max_suffix_len: Optional[int] = None,
    seed: Optional[int] = None,
) -> List[bytes]:
    """All suffixes of a random text — the Section VII-E suffix-sorting input.

    The real instance uses Wikipedia text; a random text over a small alphabet
    reproduces the essential property ``D/N ≪ 1`` (distinguishing prefixes of
    suffixes are around ``log_sigma(text_len)`` characters, while the suffixes
    themselves average ``text_len / 2`` characters).  ``max_suffix_len`` can
    truncate suffixes to bound memory, which preserves D/N ≪ 1 as long as it
    stays much larger than ``log_sigma(text_len)``.
    """
    rng = np.random.default_rng(seed)
    chars = rng.integers(ord("a"), ord("a") + alphabet_size, size=text_len, dtype=np.uint8)
    text = chars.tobytes()
    if max_suffix_len is None:
        return [text[i:] for i in range(text_len)]
    return [text[i : i + max_suffix_len] for i in range(text_len)]


def duplicate_heavy(
    num_strings: int,
    num_distinct: int = 50,
    length: int = 20,
    seed: Optional[int] = None,
) -> List[bytes]:
    """Input with many exactly repeated strings.

    The paper notes that FKmerge crashes on inputs with many repeated strings
    (Section VII-D); this generator is used to test that our implementations
    handle heavy duplication (ties in splitters, zero-length LCP remainders).
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


# ---------------------------------------------------------------------------
# Registry used by the benchmark harness / examples
# ---------------------------------------------------------------------------

class GeneratorSpec:
    """A named, parameterised workload used by the benchmark harness."""

    def __init__(self, name: str, factory, **params):
        self.name = name
        self.factory = factory
        self.params = params

    def generate(self, num_strings: int, seed: Optional[int] = None) -> List[bytes]:
        """Instantiate the workload at ``num_strings`` strings."""
        return self.factory(num_strings, seed=seed, **self.params)

    def __repr__(self) -> str:  # pragma: no cover
        return f"GeneratorSpec({self.name!r}, {self.params})"


_REGISTRY = {
    "dn0": lambda n, seed=None: dn_instance(n, 0.0, length=64, seed=seed),
    "dn25": lambda n, seed=None: dn_instance(n, 0.25, length=64, seed=seed),
    "dn50": lambda n, seed=None: dn_instance(n, 0.5, length=64, seed=seed),
    "dn75": lambda n, seed=None: dn_instance(n, 0.75, length=64, seed=seed),
    "dn100": lambda n, seed=None: dn_instance(n, 1.0, length=64, seed=seed),
    "commoncrawl": lambda n, seed=None: commoncrawl_like(n, seed=seed),
    "dnareads": lambda n, seed=None: dna_reads(n, seed=seed),
    "random": lambda n, seed=None: random_strings(n, seed=seed),
    "duplicates": lambda n, seed=None: duplicate_heavy(n, seed=seed),
}


def make_generator(name: str):
    """Look up a named generator (used by examples and the bench harness)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown generator {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
