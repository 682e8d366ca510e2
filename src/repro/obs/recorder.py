"""The per-rank event recorder: a bounded ring buffer of trace events.

One :class:`Recorder` belongs to one rank of one SPMD run.  Every event is
a plain tuple ``(kind, t, name, data)`` — ``t`` from the recorder's clock,
by default :func:`time.monotonic`, which on Linux is the boot-relative
``CLOCK_MONOTONIC`` shared by every thread *and* every forked worker
process, so per-rank streams from both execution engines align on a common
clock (the timeline builder still re-bases to the earliest event; see
:meth:`repro.obs.timeline.Timeline.from_exports`).  The cooperative threads
engine passes each rank's own clock instead, which stands still while the
rank waits for its turn (:meth:`repro.mpi.engine._SharedState.now`).

Design constraints, in order:

* **Zero cost when off.**  The recorder is never consulted behind a flag;
  instrumentation sites hold an ``Optional[Recorder]`` and skip on
  ``None``.  With tracing off the entire subsystem is one attribute load
  and one ``is None`` test per site.
* **Bounded when on.**  The buffer is a ring of ``capacity`` events;
  overflow overwrites the oldest event and counts :attr:`dropped`, so a
  pathological run degrades its trace instead of its memory.
* **Cheap appends.**  An event append is a method call, one clock
  read, and a list store — no locks (one recorder per
  rank, written only by that rank) and no allocation beyond the tuple.
  ``benchmarks/test_obs_overhead.py`` pins the events/sec throughput.

RSS is sampled only at phase transitions (``resource.getrusage``, one
cheap syscall), giving a per-stage peak-memory series without a sampler
thread.
"""

from __future__ import annotations

import resource
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "DEFAULT_CAPACITY",
    "Recorder",
    "peak_rss_bytes",
]

#: default ring capacity, per rank; at ~100 ns and ~100 bytes per event
#: this bounds a rank's trace at a few MB and far outlasts a typical run
DEFAULT_CAPACITY = 65536


def peak_rss_bytes() -> int:
    """Peak resident set size of this process so far, in bytes.

    ``ru_maxrss`` is KiB on Linux (bytes on macOS, 1024x too large there but
    stable within one trajectory file); a high-water mark that never falls.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Recorder:
    """Ring buffer of trace events for one rank (single-writer, lock-free).

    Event kinds (the complete taxonomy; see ``docs/OBSERVABILITY.md``):

    ``("phase", t, name, rss_bytes)``
        The rank entered accounting phase ``name``; closes the previous
        phase span.  ``rss_bytes`` is the peak RSS sampled at the boundary.
    ``("begin", t, name, None)`` / ``("end", t, name, None)``
        A nested sub-span — currently only ``"barrier"`` wait, recorded
        inside the surrounding phase so the timeline can report *exclusive*
        phase time (satellite fix: stragglers no longer inflate merge or
        exchange timings).
    ``("comm", t, kind, (peer, nbytes))``
        One point-to-point wire event (``kind`` is ``"send"``).
    ``("finish", t, None, rss_bytes)``
        The rank program returned; closes the final phase span.
    """

    __slots__ = (
        "rank", "capacity", "dropped", "events_recorded", "_buf", "_next", "_clock"
    )

    def __init__(
        self,
        rank: int,
        capacity: int = DEFAULT_CAPACITY,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity <= 0:
            raise ValueError("recorder capacity must be positive")
        self.rank = rank
        self.capacity = capacity
        #: events overwritten by ring wrap-around (oldest-first)
        self.dropped = 0
        #: total events ever pushed (kept and dropped)
        self.events_recorded = 0
        self._buf: List[Tuple[str, float, Optional[str], Any]] = []
        self._next = 0
        #: the timestamp source: wall time, or an engine's per-rank clock
        self._clock = clock

    # ------------------------------------------------------------------ hot path
    def _push(self, event: Tuple[str, float, Optional[str], Any]) -> None:
        buf = self._buf
        if len(buf) < self.capacity:
            buf.append(event)
        else:
            buf[self._next] = event
            self._next = (self._next + 1) % self.capacity
            self.dropped += 1
        self.events_recorded += 1

    def phase(self, name: str) -> None:
        """Record a phase transition (samples RSS at the boundary)."""
        self._push(("phase", self._clock(), name, peak_rss_bytes()))

    def begin(self, name: str) -> None:
        """Open a nested sub-span (e.g. ``"barrier"``) inside the current phase."""
        self._push(("begin", self._clock(), name, None))

    def end(self, name: str) -> None:
        """Close the innermost open sub-span named ``name``."""
        self._push(("end", self._clock(), name, None))

    def comm(self, kind: str, peer: int, nbytes: int) -> None:
        """Record one point-to-point wire event (``kind`` e.g. ``"send"``)."""
        self._push(("comm", self._clock(), kind, (peer, nbytes)))

    def finish(self) -> None:
        """Mark the end of the rank program (closes the final phase span)."""
        self._push(("finish", self._clock(), None, peak_rss_bytes()))

    # ------------------------------------------------------------------ results
    def events(self) -> List[Tuple[str, float, Optional[str], Any]]:
        """The retained events in chronological order (ring unrolled)."""
        if len(self._buf) < self.capacity:
            return list(self._buf)
        return self._buf[self._next:] + self._buf[: self._next]

    def export(self) -> Dict[str, Any]:
        """A picklable snapshot: shipped over the processes engine's report pipe.

        Plain lists/tuples/ints only, so the payload crosses the worker
        result pipe with no custom reducers and feeds
        :meth:`repro.obs.timeline.Timeline.from_exports` on the parent side.
        """
        return {
            "rank": self.rank,
            "capacity": self.capacity,
            "dropped": self.dropped,
            "events_recorded": self.events_recorded,
            "events": self.events(),
        }
