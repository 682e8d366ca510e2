"""The scalar loser trees: the ``pop()``-at-a-time oracles of the flat merges.

:class:`LoserTree` is the atomic K-way tournament tree (Section II-B) that
:func:`repro.sequential.losertree.multiway_merge` plays as one flat loop;
:class:`LcpLoserTree` / :func:`lcp_multiway_merge` is the LCP-aware tree
that :func:`repro.sequential.lcp_losertree.lcp_multiway_merge_packed`
plays on packed runs.  Each flat merge must match its tree bit for bit:
the same output, the same LCPs and the same ``CharStats`` counts.

The LCP tree's invariant: whenever the path from run ``w``'s leaf to the
root is replayed (``w`` just produced the global minimum), every node on
the path stores its loser's LCP relative to that global minimum, and the
replacement string from ``w`` knows its LCP to the same reference from
``w``'s own LCP array.  So a larger cached LCP means a smaller string with
no characters inspected, and equal cached LCPs compare characters from
that offset on.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.sequential import CharStats

from .lcp_insertion import add_comparison

__all__ = ["LoserTree", "LcpLoserTree", "lcp_multiway_merge"]


def _compare_count(a: bytes, b: bytes, stats: Optional[CharStats]) -> int:
    """Three-way compare of two strings, counting inspected characters."""
    if stats is not None:
        limit = min(len(a), len(b))
        i = 0
        while i < limit and a[i] == b[i]:
            i += 1
        add_comparison(stats, i + (1 if i < limit else 0))
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


class LoserTree:
    """K-way tournament tree over sorted runs of byte strings.

    Runs are given as lists; exhausted runs are represented by ``None``
    sentinels that compare larger than every string.  ``K`` is padded to the
    next power of two with permanently exhausted runs.
    """

    def __init__(self, runs: Sequence[Sequence[bytes]], stats: Optional[CharStats] = None):
        self.stats = stats
        k = max(1, len(runs))
        size = 1
        while size < k:
            size *= 2
        self._k = size
        self._runs: List[Sequence[bytes]] = [list(r) for r in runs] + [
            [] for _ in range(size - len(runs))
        ]
        self._pos = [0] * size
        # current[i] is the front string of run i or None when exhausted
        self._current: List[Optional[bytes]] = [
            self._runs[i][0] if self._runs[i] else None for i in range(size)
        ]
        # losers[1..size-1] store run indices; losers[0] stores the overall winner
        self._losers = [0] * size
        self._init_tree()

    # -- internal ----------------------------------------------------------------
    def _less(self, i: int, j: int) -> bool:
        """Is the current element of run ``i`` smaller than that of run ``j``?

        Ties are broken by run index, which keeps the merge stable.
        """
        a, b = self._current[i], self._current[j]
        if a is None:
            return False
        if b is None:
            return True
        c = _compare_count(a, b, self.stats)
        if c != 0:
            return c < 0
        return i < j

    def _init_tree(self) -> None:
        size = self._k
        # winner[x] for the sub-tournament rooted at internal node x
        winners = [0] * (2 * size)
        for i in range(size):
            winners[size + i] = i
        for x in range(size - 1, 0, -1):
            left, right = winners[2 * x], winners[2 * x + 1]
            if self._less(left, right):
                winners[x] = left
                self._losers[x] = right
            else:
                winners[x] = right
                self._losers[x] = left
        self._losers[0] = winners[1]

    # -- public API -----------------------------------------------------------------
    def empty(self) -> bool:
        """True when every run is exhausted."""
        return self._current[self._losers[0]] is None

    def peek(self) -> Optional[bytes]:
        """Smallest remaining string without removing it (None when empty)."""
        return self._current[self._losers[0]]

    def pop(self) -> bytes:
        """Remove and return the smallest remaining string."""
        winner = self._losers[0]
        value = self._current[winner]
        if value is None:
            raise IndexError("pop from an empty LoserTree")

        # advance the winning run
        self._pos[winner] += 1
        run = self._runs[winner]
        self._current[winner] = (
            run[self._pos[winner]] if self._pos[winner] < len(run) else None
        )

        # replay the path from the winner's leaf to the root
        node = (self._k + winner) // 2
        cand = winner
        while node >= 1:
            other = self._losers[node]
            if self._less(other, cand):
                self._losers[node] = cand
                cand = other
            node //= 2
        self._losers[0] = cand
        return value


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
            add_comparison(self.stats, i - start + (1 if i < limit else 0))
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
