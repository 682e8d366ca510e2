"""Span reconstruction: raw per-rank event streams to an aligned timeline.

A :class:`Timeline` is the structured view of one run's recorders: per-rank
phase :class:`Span`\\ s (``local-sort``, ``splitter-determination``,
``exchange``, ``merge``, ...), nested barrier-wait sub-spans, and point
:class:`Instant`\\ s (comm events, fault injections, retransmit pulls).
All timestamps are **rank-offset aligned**: the earliest event over all
ranks becomes ``t = 0`` (the raw monotonic origin is kept in
:attr:`Timeline.origin`), so timelines from the thread engine and from
forked worker processes render identically.

The central attribution fix lives in :meth:`Timeline.phase_seconds`:
*exclusive* phase time subtracts the barrier-wait sub-spans nested inside
a phase, so a straggling rank inflates the ``barrier`` account — not the
``merge`` or ``exchange`` account that happened to surround the wait.

Timelines attach to :class:`repro.net.metrics.TrafficReport` and must obey
its fold contract: :meth:`Timeline.merged` concatenates two runs
end-to-end (the later run's spans are shifted past the earlier run's end),
keeping every span exactly once and adding dropped-event counts — pinned
by ``tests/test_sort_batches.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Span", "Instant", "Timeline"]


@dataclass
class Span:
    """One half-open interval ``[start, end)`` of one rank's time.

    ``cat`` is the span taxonomy bucket: ``"phase"`` for accounting phases
    (one per :meth:`Communicator.set_phase` interval) and ``"barrier"`` for
    the nested barrier-wait sub-spans; third-party instrumentation may add
    further categories.  Times are seconds on the aligned run clock.
    """

    rank: int
    name: str
    cat: str
    start: float
    end: float
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """The span's length in seconds (never negative)."""
        return max(0.0, self.end - self.start)


@dataclass
class Instant:
    """One point event on a rank's timeline (comm event, fault marker)."""

    rank: int
    name: str
    cat: str
    ts: float
    args: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Timeline:
    """The aligned, structured trace of one (or several folded) runs."""

    num_pes: int
    spans: List[Span] = field(default_factory=list)
    instants: List[Instant] = field(default_factory=list)
    #: events lost to ring-buffer overflow, summed over ranks and folds
    dropped_events: int = 0
    #: raw monotonic timestamp that became ``t = 0`` (first folded run's)
    origin: float = 0.0
    #: free-form provenance (engine name, merged-run count, ...)
    meta: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------ construction
    @classmethod
    def from_exports(
        cls, exports: Sequence[Dict[str, Any]], num_pes: int
    ) -> "Timeline":
        """Build an aligned timeline from per-rank recorder exports.

        ``exports`` are :meth:`repro.obs.recorder.Recorder.export` payloads
        (any subset of ranks, any order).  Alignment subtracts the earliest
        timestamp over *all* ranks — valid on both engines because
        ``time.monotonic`` is the boot-relative ``CLOCK_MONOTONIC`` shared
        across threads and forked processes alike.  An unclosed final phase
        (a rank whose ``finish`` marker was dropped) is closed at that
        rank's last event.
        """
        origin = min(
            (ev[1] for ex in exports for ev in ex["events"]),
            default=0.0,
        )
        timeline = cls(num_pes=num_pes, origin=origin)
        for ex in exports:
            timeline.dropped_events += int(ex.get("dropped", 0))
            _build_rank(timeline, int(ex["rank"]), ex["events"], origin)
        timeline.spans.sort(key=lambda s: (s.rank, s.start, s.end))
        timeline.instants.sort(key=lambda i: (i.rank, i.ts))
        return timeline

    # ------------------------------------------------------------------ queries
    @property
    def duration(self) -> float:
        """End of the last span/instant on the aligned clock (0.0 if empty)."""
        last = 0.0
        for s in self.spans:
            last = max(last, s.end)
        for i in self.instants:
            last = max(last, i.ts)
        return last

    def phase_names(self) -> List[str]:
        """Distinct phase names, ordered by first appearance on the clock."""
        first: Dict[str, float] = {}
        for s in self.spans:
            if s.cat == "phase" and (s.name not in first or s.start < first[s.name]):
                first[s.name] = s.start
        return sorted(first, key=lambda n: first[n])

    def iter_spans(
        self,
        cat: Optional[str] = None,
        name: Optional[str] = None,
        rank: Optional[int] = None,
    ) -> Iterable[Span]:
        """Spans filtered by category / name / rank (``None`` matches all)."""
        for s in self.spans:
            if cat is not None and s.cat != cat:
                continue
            if name is not None and s.name != name:
                continue
            if rank is not None and s.rank != rank:
                continue
            yield s

    def phase_seconds(
        self,
        name: Optional[str] = None,
        rank: Optional[int] = None,
        exclusive: bool = True,
    ) -> float:
        """Summed seconds of phase spans, by default **exclusive** of barrier wait.

        ``exclusive=True`` subtracts, from every matching phase span, the
        parts of the same rank's barrier-wait sub-spans that fall inside
        it — the attribution fix that keeps a straggler's idle time out of
        the surrounding merge/exchange account.  ``exclusive=False`` is
        plain wall-clock span time.
        """
        total = 0.0
        barrier_by_rank: Dict[int, List[Span]] = {}
        if exclusive:
            for b in self.iter_spans(cat="barrier"):
                barrier_by_rank.setdefault(b.rank, []).append(b)
        for s in self.iter_spans(cat="phase", name=name, rank=rank):
            seconds = s.duration
            if exclusive:
                for b in barrier_by_rank.get(s.rank, ()):
                    seconds -= _intersection(s, b)
            total += max(0.0, seconds)
        return total

    def stage_seconds(self, exclusive: bool = True) -> Dict[str, float]:
        """Per-phase summed seconds over all ranks (see :meth:`phase_seconds`)."""
        return {
            name: self.phase_seconds(name=name, exclusive=exclusive)
            for name in self.phase_names()
        }

    def barrier_seconds(self, rank: Optional[int] = None) -> float:
        """Summed barrier-wait seconds (all ranks, or one rank's)."""
        return sum(s.duration for s in self.iter_spans(cat="barrier", rank=rank))

    def peak_rss_per_stage(self) -> Dict[str, int]:
        """Peak resident-set bytes observed per phase (RSS sampled at boundaries)."""
        peaks: Dict[str, int] = {}
        for s in self.iter_spans(cat="phase"):
            rss = s.args.get("rss_bytes")
            if rss is not None:
                peaks[s.name] = max(peaks.get(s.name, 0), int(rss))
        return peaks

    # ------------------------------------------------------------------ algebra
    def shifted(self, offset: float) -> "Timeline":
        """A copy with every timestamp moved by ``offset`` seconds."""
        return Timeline(
            num_pes=self.num_pes,
            spans=[
                Span(s.rank, s.name, s.cat, s.start + offset, s.end + offset, dict(s.args))
                for s in self.spans
            ],
            instants=[
                Instant(i.rank, i.name, i.cat, i.ts + offset, dict(i.args))
                for i in self.instants
            ],
            dropped_events=self.dropped_events,
            origin=self.origin,
            meta=dict(self.meta),
        )

    def merged(self, other: "Timeline") -> "Timeline":
        """A new timeline folding ``other`` after ``self`` (inputs unmutated).

        The fold contract of :meth:`repro.net.metrics.TrafficReport.fold`
        for the timeline attachment: ``other``'s spans are shifted to start
        where ``self`` ends (batches/retry attempts render sequentially,
        never interleaved with a different run), every span and instant of
        both inputs appears exactly once, and dropped-event counts add.
        ``meta`` is ``self``'s with ``other``'s keys filled in, and its
        ``merged_runs`` and ``num_strings`` add.
        """
        if other.num_pes != self.num_pes:
            raise ValueError(
                "cannot merge timelines from machines of different sizes: "
                f"{sorted({self.num_pes, other.num_pes})}"
            )
        shifted = other.shifted(self.duration)
        meta = dict(self.meta)
        for key, value in other.meta.items():
            meta.setdefault(key, value)
        runs = self.meta.get("merged_runs", 1) + other.meta.get("merged_runs", 1)
        meta["merged_runs"] = runs
        if "num_strings" in meta:
            strings = self.meta.get("num_strings", 0) + other.meta.get("num_strings", 0)
            meta["num_strings"] = strings
        return Timeline(
            num_pes=self.num_pes,
            spans=self.spans + shifted.spans,
            instants=self.instants + shifted.instants,
            dropped_events=self.dropped_events + other.dropped_events,
            origin=self.origin,
            meta=meta,
        )


def _intersection(a: Span, b: Span) -> float:
    """Length of the overlap of two spans' intervals (0.0 when disjoint)."""
    return max(0.0, min(a.end, b.end) - max(a.start, b.start))


def _build_rank(
    timeline: Timeline,
    rank: int,
    events: Sequence[Tuple[str, float, Optional[str], Any]],
    origin: float,
) -> None:
    """Replay one rank's event stream into spans/instants (aligned by ``origin``)."""
    open_phase: Optional[Tuple[str, float]] = None  # (name, aligned start)
    sub_stack: List[Tuple[str, float]] = []
    last_t = 0.0

    def close_phase(end: float, rss: Optional[int]) -> None:
        if open_phase is None:
            return
        name, start = open_phase
        args: Dict[str, Any] = {}
        if rss is not None:
            # ru_maxrss is a high-water mark, so the boundary sample at the
            # *exit* of a phase is the peak through that phase
            args["rss_bytes"] = int(rss)
        timeline.spans.append(Span(rank, name, "phase", start, end, args))

    for kind, raw_t, name, data in events:
        t = raw_t - origin
        last_t = max(last_t, t)
        if kind == "phase":
            close_phase(t, data)
            open_phase = (name or "unlabelled", t)
        elif kind == "finish":
            close_phase(t, data)
            open_phase = None
        elif kind == "begin":
            sub_stack.append((name or "sub", t))
        elif kind == "end":
            for idx in range(len(sub_stack) - 1, -1, -1):
                if sub_stack[idx][0] == name:
                    sub_name, start = sub_stack.pop(idx)
                    cat = "barrier" if sub_name == "barrier" else "sub"
                    timeline.spans.append(Span(rank, sub_name, cat, start, t))
                    break
        elif kind == "comm":
            peer, nbytes = data
            timeline.instants.append(
                Instant(rank, name or "send", "comm", t, {"peer": peer, "bytes": nbytes})
            )
        elif kind == "instant":
            args = data if isinstance(data, dict) else ({} if data is None else {"data": data})
            timeline.instants.append(Instant(rank, name or "mark", "mark", t, dict(args)))
    # a rank whose finish marker was lost (ring overflow, crash) still
    # contributes its final phase, closed at its last observed event
    close_phase(last_t, None)
