"""LCP-aware K-way loser tree (Section II-B).

The LCP loser tree generalises binary LCP-merging (Ng & Kakehi) to ``K``
ways: every sorted input run carries its LCP array, internal nodes store the
loser run *and* the LCP of the loser's current string with the winner string
that passed the node.  With these cached values most comparisons are decided
without inspecting characters; characters are only read when two cached LCP
values tie, and then only from that position onward.  The paper cites the
bound of ``m log K + Delta L`` character comparisons for merging ``m``
strings, which embedded into mergesort yields ``O(D + n log n)`` total work.

Key invariant (which makes the cached values comparable): whenever the path
from run ``w``'s leaf to the root is replayed (because ``w`` just produced
the global minimum), every node on this path stored its loser's LCP relative
to that very global minimum — the element that passed the node on its way to
the root.  The replacement string from run ``w`` knows its LCP to the same
reference from ``w``'s own input LCP array.  Hence all LCP values on the
path refer to the last output string and the standard LCP-compare rules
apply:

* larger cached LCP  →  smaller string (no characters inspected),
* equal cached LCPs  →  compare characters starting at that offset.

The merge also produces the LCP array of the output sequence for free.

:func:`lcp_multiway_merge_packed` plays this tournament on packed runs as
one flat loop with no helper calls: each leaf-to-root path is a tuple of
nodes built once per call (the path table), seating and replays walk those
tuples, and the character comparison of an LCP tie is written inline at its
one site in the loop.  The scalar ``LcpLoserTree`` it is held to, one
``pop()`` at a time, is a test oracle (``tests/oracles/losertree.py``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..strings.packed import PackedStringArray, concat_runs
from .stats import CharStats

__all__ = ["lcp_multiway_merge_packed"]


def lcp_multiway_merge_packed(
    runs: Sequence[PackedStringArray],
    lcps: Sequence[np.ndarray],
    stats: Optional[CharStats] = None,
) -> Tuple[PackedStringArray, np.ndarray]:
    """Merge packed sorted runs into one packed run + ``int64`` LCP array.

    Plays the tournament of the scalar ``lcp_multiway_merge`` — same tree shape,
    tie-breaks and character reads, so strings, LCPs and ``stats`` are
    bit-identical — as one flat loop over plain-Python views of the runs
    (bytes, offsets, lengths and LCPs as plain lists):

    * every walk follows a tuple of the path table ``paths``, each run's
      leaf-to-root nodes built once per call; seating the runs left to
      right plays the matches of a bottom-up build on the same walks;
    * a match reads characters only when two cached LCPs tie, at the loop's
      one comparison site (inline: no closure, no call); any other
      decision is one integer comparison and writes nothing;
    * the strings following a winner in its run ``w`` whose run-LCP exceeds
      ``ceiling``, the largest LCP cached by a live contender on ``w``'s
      path, win their replays on cached values alone and leave the tree as
      it is (``LCP(l, new) = LCP(l, prev)`` as ``LCP(prev, new) > LCP(l,
      prev)``): the whole *segment* costs one forward scan and one replay,
      and every LCP entry is read once over the whole merge.  A next
      string whose run-LCP is not above the LCP cached at ``w``'s first
      node ends the segment before the ceiling is taken;
    * a segment is only recorded; afterwards its characters are one slice
      of the runs' bytes, and offsets and LCPs one gather per output.

    At most one non-empty run: it comes back as is, with a copy of its LCPs.
    """
    if len(lcps) != len(runs) or any(len(h) != len(r) for r, h in zip(runs, lcps)):
        raise ValueError("need one LCP array per run and one LCP per string")
    live = [i for i, run in enumerate(runs) if len(run)]
    if not live:
        return PackedStringArray.empty(), np.zeros(0, dtype=np.int64)
    if len(live) == 1:
        out_lcps = np.array(lcps[live[0]], dtype=np.int64)
        out_lcps[0] = 0
        return runs[live[0]], out_lcps

    # the runs back to back: run r is strings bounds[r]:bounds[r+1]
    cat, cat_bounds = concat_runs(runs)
    bounds = cat_bounds.tolist()
    total = bounds[-1]
    lengths = cat.lengths
    off = cat.offsets.tolist()
    size = lengths.tolist()
    data = cat.buffer.tobytes()
    cat_lcps = np.full(total + 1, -1, dtype=np.int64)
    cat_lcps[:total] = np.concatenate(lcps)
    # A run's first entry is never read as a run-LCP, and it sits where a scan
    # or an advance off the end of the previous run lands: -1 there (and past
    # the last run) stops every scan and marks the run exhausted, below every
    # live LCP.  The output overwrites these entries: each starts a segment.
    cat_lcps[bounds[:-1]] = -1
    lcp = cat_lcps.tolist()

    k = 1
    while k < len(runs):
        k *= 2
    # the path table: paths[r] is run r's leaf-to-root path, bottom up
    paths = tuple(tuple((k + r) >> j for j in range(1, k.bit_length())) for r in range(k))
    pos = bounds[:-1] + [total] * (k - len(runs))
    # LCP of each run's current string with the last output string (-1: run
    # exhausted); read only on the path replayed next, where it is current
    ref = [0 if len(run) else -1 for run in runs] + [-1] * (k - len(runs))
    loser = [0] * k
    comparisons = chars = 0

    seg_start: List[int] = []
    seg_stop: List[int] = []
    seg_lcp: List[int] = []
    # Seating: runs enter left to right against the reference '' (every live
    # run's LCP 0).  Run ``seat`` climbs while it is a right child, playing the
    # left subtree's winner waiting at each node, and the winner then waits
    # at ``rest``, the first node it reaches from the left: the matches of a
    # bottom-up build.  The last run climbs to the root (``rest`` 0); from
    # then on the route is the winner's path, replayed once per segment.
    seat = w = 0
    h, route, rest = ref[0], (), k >> 1
    while True:
        for node in route:
            opp = loser[node]
            opp_h = ref[opp]
            if opp_h == h:
                if h >= 0:
                    # the one comparison site: both strings agree with the
                    # reference on h characters, so compare from there; the
                    # loser caches the LCP the two share
                    p, q = pos[w], pos[opp]
                    a, b = off[p], off[q]
                    len_a, len_b = size[p], size[q]
                    limit = len_a if len_a < len_b else len_b
                    i = h
                    while i < limit:
                        ca, cb = data[a + i], data[b + i]
                        if ca != cb:
                            break
                        i += 1
                    comparisons += 1
                    if i < limit:
                        chars += i - h + 1
                        if ca < cb:
                            ref[opp] = i
                            continue
                    else:
                        chars += i - h
                        # a prefix wins; equal strings: the lower run
                        if len_a < len_b or (len_a == len_b and w < opp):
                            ref[opp] = i
                            continue
                    ref[w] = i
                # opp wins the comparison, or both are exhausted and the
                # stored loser moves up, as in the scalar tree
                loser[node] = w
                w = opp
            elif opp_h > h:  # larger cached LCP wins unread
                loser[node] = w
                w, h = opp, opp_h
        if rest:
            loser[rest] = w
            seat += 1
            climb = (seat ^ (seat + 1)).bit_length() - 1  # trailing one bits
            w, h, route = seat, ref[seat], paths[seat][:climb]
            rest = (k + seat) >> (climb + 1)
            continue
        if h < 0:  # the winner is exhausted, so every run is
            break
        # the segment: the following strings of w whose run-LCP exceeds the
        # ceiling, the largest LCP cached by a live contender on w's path.
        # A run-LCP not above the first node's cached LCP is not above the
        # ceiling either: the segment is one string, the ceiling not taken
        route = paths[w]
        start = pos[w]
        stop = start + 1
        if lcp[stop] > ref[loser[route[0]]]:
            ceiling = -1
            for node in route:
                opp_h = ref[loser[node]]
                if opp_h > ceiling:
                    ceiling = opp_h
            while lcp[stop] > ceiling:
                stop += 1
        seg_start.append(start)
        seg_stop.append(stop)
        seg_lcp.append(h)
        pos[w] = stop
        # one replay for the whole segment (= the scalar sequence's last one)
        h = ref[w] = lcp[stop]
    if stats is not None:
        stats.merge(CharStats(chars, comparisons))

    starts = np.array(seg_start, dtype=np.int64)
    counts = np.array(seg_stop, dtype=np.int64) - starts
    out_starts = np.cumsum(counts) - counts
    order = np.repeat(starts - out_starts, counts) + np.arange(total, dtype=np.int64)
    out_lcps = cat_lcps[order]
    out_lcps[out_starts] = seg_lcp
    out_off = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(lengths[order], out=out_off[1:])
    out = b"".join([data[off[a] : off[b]] for a, b in zip(seg_start, seg_stop)])
    return PackedStringArray(np.frombuffer(out, dtype=np.uint8), out_off), out_lcps
