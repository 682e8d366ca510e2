"""Approximating distinguishing prefixes by fingerprint doubling (Section VI-A).

PDMS must know, for every string, a prefix length that distinguishes it from
all other strings — without ever comparing strings across PEs.  The paper's
"Step 1 + epsilon" protocol achieves this with geometrically growing
candidate lengths: in round ``k`` every still-active string hashes its
prefix of length ``l_k`` and the machine runs a distributed duplicate test
on the fingerprints.  A unique fingerprint proves (up to hash collisions,
which only err towards *keeping* a string active) that no other string
shares the prefix, so ``l_k`` is a valid DIST upper bound and the string
retires.  Duplicate fingerprints mean the prefix may be shared; the string
stays active with ``l_{k+1} = (1 + epsilon) · l_k``.  A string whose whole
length has been hashed retires with ``DIST = |s|`` — exact duplicates can
never be distinguished by any prefix, matching the paper's convention that
the 0 terminator is part of the string.

The resulting estimate never *under*-shoots the true DIST and, with
``epsilon = 1`` (doubling), overshoots by less than a factor of 2 beyond the
initial length.  Smaller epsilons tighten the estimate at the price of more
detection rounds — the tradeoff of Section VI-A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Union

import numpy as np

from ..mpi.comm import Communicator
from ..strings.packed import PackedStringArray
from .duplicates import extend_prefix_hashes, mix_fingerprints, unique_fingerprint_mask

__all__ = ["PrefixDoublingResult", "approximate_dist_prefixes"]

# 40-bit fingerprints: two distinct prefixes collide with probability about
# 2^-40 + (c/2^31)^2 and a collision only ever inflates the estimate; 5 bytes
# per fingerprint is a large share of PDMS's total communication volume, so
# width is chosen as small as safety allows.
DEFAULT_FINGERPRINT_BITS = 40

# Geometric growth reaches any realistic string length quickly; 64 rounds is
# a pure safety net against protocol bugs, never reached in practice.
_MAX_ROUNDS = 64


@dataclass
class PrefixDoublingResult:
    """Per-rank outcome of the doubling protocol."""

    lengths: List[int]
    rounds: int
    round_active_counts: List[int] = field(default_factory=list)
    # candidates hashed (active strings, summed over rounds); each PE puts
    # only its distinct values on the wire, so fewer are sent
    fingerprints_sent: int = 0


def approximate_dist_prefixes(
    comm: Communicator,
    strings: Union[PackedStringArray, Sequence[bytes]],
    initial_length: int = 16,
    epsilon: float = 1.0,
    golomb: bool = False,
    bits: int = DEFAULT_FINGERPRINT_BITS,
) -> PrefixDoublingResult:
    """Upper bounds on ``DIST(s)`` for every local string (globally valid).

    All ranks execute the same number of rounds (the loop is driven by an
    all-reduce of the active counts), so the protocol is safe to run with
    ragged local inputs including empty ranks.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if initial_length < 1:
        raise ValueError("initial_length must be at least 1")
    if not 1 <= bits <= 64:
        raise ValueError("bits must be in [1, 64]")

    # array-native bookkeeping: the string lengths, the answer, the still-active
    # strings' indices and hashes (of their length-``hashed_to`` prefixes);
    # empty strings carry no information and retire immediately with DIST 0
    packed = PackedStringArray.from_strings(strings)
    full = packed.lengths
    lengths = np.zeros(len(packed), dtype=np.int64)
    active = np.flatnonzero(full)
    hashes = np.zeros((2, active.size), dtype=np.int64)
    hashed_to = 0

    result = PrefixDoublingResult(lengths=[], rounds=0)
    candidate = int(initial_length)
    with comm.phase("prefix-doubling"):
        while result.rounds < _MAX_ROUNDS:
            globally_active = comm.allreduce(active.size)
            if globally_active == 0:
                break
            result.round_active_counts.append(globally_active)
            result.rounds += 1

            hashes = extend_prefix_hashes(hashes, packed, active, hashed_to, candidate)
            hashed_to = candidate
            fingerprints = mix_fingerprints(hashes, salt=result.rounds, bits=bits)
            result.fingerprints_sent += active.size
            hashed = np.minimum(full[active], candidate)
            comm.record_local_work(int(hashed.sum()), active.size)
            unique = unique_fingerprint_mask(
                comm, fingerprints, bits=bits, golomb=golomb,
                phase="prefix-doubling",
            )

            # a unique fingerprint retires the string at the hashed length; so
            # does a duplicate whose entire string was hashed — a true (or
            # full-prefix) duplicate, distinguishable only by its terminator
            retired = unique | (hashed == full[active])
            lengths[active[retired]] = hashed[retired]
            active = active[~retired]
            hashes = hashes[:, ~retired]
            candidate = max(int(math.floor(candidate * (1.0 + epsilon))), candidate + 1)

        # safety-net exit: if the round bound was hit with strings still
        # active (pathologically small epsilon/initial_length), retire them
        # with their full length — always a valid DIST upper bound
        lengths[active] = full[active]
    result.lengths = lengths.tolist()
    return result
