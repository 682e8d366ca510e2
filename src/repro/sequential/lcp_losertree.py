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

:class:`LcpLoserTree` plays this one ``pop()`` at a time and is the oracle;
:func:`lcp_multiway_merge_packed` plays the same tournament on packed runs as
one flat loop with no helper calls: each leaf-to-root path is a tuple of
nodes built once per call (the path table), seating and replays walk those
tuples, and the character comparison of an LCP tie is written inline at its
one site in the loop.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..strings.packed import PackedStringArray, concat_runs
from .stats import CharStats

__all__ = ["LcpLoserTree", "lcp_multiway_merge", "lcp_multiway_merge_packed"]


class LcpLoserTree:
    """LCP-aware tournament tree over sorted runs with LCP arrays."""

    def __init__(
        self,
        runs: Sequence[Sequence[bytes]],
        lcps: Optional[Sequence[Sequence[int]]] = None,
        stats: Optional[CharStats] = None,
    ):
        """Build the tree.

        Parameters
        ----------
        runs:
            Sorted runs of byte strings.
        lcps:
            Matching LCP arrays (``lcps[i][j] = LCP(runs[i][j-1], runs[i][j])``,
            first entry ignored).  When omitted they are computed here, which
            costs extra character scans but keeps the API convenient for
            tests.
        stats:
            Optional character/comparison counter.
        """
        self.stats = stats
        k = max(1, len(runs))
        size = 1
        while size < k:
            size *= 2
        self._k = size
        self._runs: List[List[bytes]] = [list(r) for r in runs] + [
            [] for _ in range(size - len(runs))
        ]
        if lcps is None:
            self._run_lcps = [self._compute_lcps(r) for r in self._runs]
        else:
            self._run_lcps = [list(h) for h in lcps] + [
                [] for _ in range(size - len(lcps))
            ]
            for i, r in enumerate(self._runs):
                if len(self._run_lcps[i]) != len(r):
                    raise ValueError(
                        f"run {i}: LCP array length {len(self._run_lcps[i])} "
                        f"!= run length {len(r)}"
                    )

        self._pos = [0] * size
        self._current: List[Optional[bytes]] = [
            self._runs[i][0] if self._runs[i] else None for i in range(size)
        ]
        # LCP of each run's current string w.r.t. the last output string;
        # only meaningful for runs on the most recently replayed path, which
        # is exactly when the value is read.
        self._cur_lcp = [0] * size
        # node i >= 1: loser run index; its ``_cur_lcp`` is LCP(loser, winner
        # that passed)
        self._loser = [0] * size
        self._winner = 0
        self._winner_lcp = 0
        self._init_tree()

    # ------------------------------------------------------------------ helpers
    @staticmethod
    def _compute_lcps(run: Sequence[bytes]) -> List[int]:
        out = [0] * len(run)
        for j in range(1, len(run)):
            a, b = run[j - 1], run[j]
            limit = min(len(a), len(b))
            i = 0
            while i < limit and a[i] == b[i]:
                i += 1
            out[j] = i
        return out

    def _char_compare(self, a: bytes, b: bytes, start: int) -> Tuple[int, int]:
        """Three-way compare from offset ``start``; returns ``(cmp, lcp)``."""
        limit = min(len(a), len(b))
        i = start
        while i < limit and a[i] == b[i]:
            i += 1
        if self.stats is not None:
            self.stats.add_comparison(i - start + (1 if i < limit else 0))
        if i == limit:
            return (len(a) - len(b), i)
        return (a[i] - b[i], i)

    def _play(self, x: int, y: int) -> Tuple[int, int, int]:
        """Play runs ``x`` against ``y`` using their ``_cur_lcp`` values.

        Returns ``(winner, loser, lcp_between_them)``.  Both ``_cur_lcp``
        values must refer to the same reference string (the last output, or
        the empty string during initialisation).
        """
        a, b = self._current[x], self._current[y]
        if a is None:
            return (y, x, 0)
        if b is None:
            return (x, y, 0)
        hx, hy = self._cur_lcp[x], self._cur_lcp[y]
        if hx > hy:
            # x matches the reference longer, so x < y; they diverge at hy
            return (x, y, hy)
        if hy > hx:
            return (y, x, hx)
        cmp, h = self._char_compare(a, b, hx)
        if cmp < 0 or (cmp == 0 and x < y):
            return (x, y, h)
        return (y, x, h)

    def _init_tree(self) -> None:
        """Bottom-up initialisation with real comparisons (reference = '')."""
        size = self._k
        for i in range(size):
            self._cur_lcp[i] = 0
        winners = [0] * (2 * size)
        winner_lcps = [0] * (2 * size)
        for i in range(size):
            winners[size + i] = i
            winner_lcps[size + i] = 0
        for node in range(size - 1, 0, -1):
            left, right = winners[2 * node], winners[2 * node + 1]
            w, loser, h = self._play(left, right)
            winners[node] = w
            self._loser[node] = loser
            # the loser's cached LCP must refer to the winner that passed it,
            # which is the reference string the next replay of this node uses
            self._cur_lcp[loser] = h
            winner_lcps[node] = self._cur_lcp[w]
        self._winner = winners[1] if size > 1 else 0
        self._winner_lcp = 0

    # ------------------------------------------------------------------ public API
    def empty(self) -> bool:
        """True when every run is exhausted."""
        return self._current[self._winner] is None

    def peek(self) -> Optional[bytes]:
        """Smallest remaining string (None when the tree is empty)."""
        return self._current[self._winner]

    def pop(self) -> Tuple[bytes, int]:
        """Remove the smallest string; returns ``(string, lcp_to_previous_output)``."""
        w = self._winner
        value = self._current[w]
        if value is None:
            raise IndexError("pop from an empty LcpLoserTree")
        out_lcp = self._winner_lcp

        # Advance run w.  The new front's LCP w.r.t. the last output (which
        # is the string we just removed, from the same run) is the run's own
        # LCP array entry.
        self._pos[w] += 1
        run = self._runs[w]
        if self._pos[w] < len(run):
            self._current[w] = run[self._pos[w]]
            self._cur_lcp[w] = self._run_lcps[w][self._pos[w]]
        else:
            self._current[w] = None
            self._cur_lcp[w] = 0

        # Replay the leaf-to-root path.  Candidate and every stored loser on
        # this path hold LCP values relative to the string just output.
        cand = w
        node = (self._k + w) // 2
        while node >= 1:
            opp = self._loser[node]
            winner, loser, h = self._play(cand, opp)
            self._loser[node] = loser
            # the loser's cached lcp (vs last output) stays what it was; the
            # node additionally remembers LCP(loser, winner) = h for the next
            # time this node is replayed with this winner as the reference
            self._cur_lcp_store(loser, h)
            cand = winner
            node //= 2
        self._winner = cand
        self._winner_lcp = self._cur_lcp[cand] if self._current[cand] is not None else 0
        return value, out_lcp

    def _cur_lcp_store(self, run: int, lcp_vs_winner: int) -> None:
        """Record the loser's LCP relative to the winner that just passed it.

        The next time the loser participates in a comparison is when the
        winner's path is replayed — at that moment the winner is the last
        output string, so ``lcp_vs_winner`` is exactly the "LCP w.r.t. last
        output" the comparison rules need.
        """
        self._cur_lcp[run] = lcp_vs_winner


def lcp_multiway_merge(
    runs: Sequence[Sequence[bytes]],
    lcps: Optional[Sequence[Sequence[int]]] = None,
    stats: Optional[CharStats] = None,
) -> Tuple[List[bytes], List[int]]:
    """Merge sorted runs (with LCP arrays) into one sorted run + LCP array."""
    tree = LcpLoserTree(runs, lcps, stats)
    total = sum(len(r) for r in runs)
    out: List[bytes] = []
    out_lcps: List[int] = []
    for _ in range(total):
        s, h = tree.pop()
        out.append(s)
        out_lcps.append(h)
    if out_lcps:
        out_lcps[0] = 0
    return out, out_lcps


def lcp_multiway_merge_packed(
    runs: Sequence[PackedStringArray],
    lcps: Sequence[np.ndarray],
    stats: Optional[CharStats] = None,
) -> Tuple[PackedStringArray, np.ndarray]:
    """Merge packed sorted runs into one packed run + ``int64`` LCP array.

    Plays the tournament of :func:`lcp_multiway_merge` — same tree shape,
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
