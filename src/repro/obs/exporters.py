"""Timeline exporters: Chrome-trace JSON, schema validation, terminal views.

The Chrome-trace document (the ``chrome://tracing`` / Perfetto "JSON Object
Format") maps the repo's model onto trace concepts as:

* one *process* (``pid`` 0) per run — the simulated machine;
* one *thread* per rank (``tid`` = rank, named ``"rank N"``);
* phase and barrier spans as complete events (``"ph": "X"``, microsecond
  ``ts``/``dur``);
* comm instants as thread-scoped instant events (``"ph": "i"``).

:func:`validate_chrome_trace` is the schema check CI runs against every
archived ``trace.json``; :func:`render_waterfall` is the quick-look
terminal view (`repro trace` prints it) that shows straggle and overlap
without leaving the shell.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .timeline import Timeline

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "render_waterfall",
]

_US = 1e6  # trace-event timestamps are microseconds


def chrome_trace(
    timeline: Timeline, meta: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """The timeline as a Chrome-trace/Perfetto JSON object (one process, rank threads)."""
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "repro run"},
        }
    ]
    ranks = sorted({s.rank for s in timeline.spans} | {i.rank for i in timeline.instants})
    for rank in ranks:
        events.append(
            {
                "ph": "M",
                "pid": 0,
                "tid": rank,
                "name": "thread_name",
                "args": {"name": f"rank {rank}"},
            }
        )
        events.append(
            {
                "ph": "M",
                "pid": 0,
                "tid": rank,
                "name": "thread_sort_index",
                "args": {"sort_index": rank},
            }
        )
    for span in timeline.spans:
        events.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": span.rank,
                "name": span.name,
                "cat": span.cat,
                "ts": span.start * _US,
                "dur": span.duration * _US,
                "args": dict(span.args),
            }
        )
    for instant in timeline.instants:
        events.append(
            {
                "ph": "i",
                "s": "t",
                "pid": 0,
                "tid": instant.rank,
                "name": instant.name,
                "cat": instant.cat,
                "ts": instant.ts * _US,
                "args": dict(instant.args),
            }
        )
    other: Dict[str, Any] = {
        "num_pes": timeline.num_pes,
        "dropped_events": timeline.dropped_events,
    }
    other.update(timeline.meta)
    if meta:
        other.update(meta)
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}


def write_chrome_trace(
    timeline: Timeline, path: str, meta: Optional[Dict[str, Any]] = None
) -> None:
    """Serialise :func:`chrome_trace` to ``path`` (UTF-8 JSON)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(timeline, meta), fh, indent=1)


def validate_chrome_trace(doc: Any) -> List[str]:
    """Schema-check a Chrome-trace document; the list of violations ([] = valid).

    Covers the invariants the viewers actually rely on: a ``traceEvents``
    list of dicts, a known ``ph`` per event, numeric non-negative ``ts``
    (and ``dur`` for complete events), integer ``pid``/``tid``, and a
    string ``name`` wherever one is required.  CI runs this against every
    archived ``trace.json``.
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "i", "M", "B", "E"):
            errors.append(f"{where}: unknown or missing ph {ph!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                errors.append(f"{where}: {key} must be an integer")
        if ph in ("X", "i", "B", "E"):
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                errors.append(f"{where}: ts must be a non-negative number")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: dur must be a non-negative number")
        if not isinstance(ev.get("name"), str) or not ev.get("name"):
            errors.append(f"{where}: name must be a non-empty string")
        if ph == "i" and ev.get("s") not in (None, "t", "p", "g"):
            errors.append(f"{where}: instant scope s must be one of t/p/g")
    return errors


def render_waterfall(timeline: Timeline, width: int = 72) -> str:
    """A terminal phase waterfall: one row per rank, one glyph per phase.

    Each rank's row is the aligned run clock scaled to ``width`` columns;
    phase spans paint their glyph, barrier waits overpaint ``'·'`` so
    straggle is visible at a glance.  A legend and the per-stage exclusive
    second totals follow.
    """
    duration = timeline.duration
    if duration <= 0.0 or not timeline.spans:
        return "(empty timeline)"
    glyphs = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    phases = timeline.phase_names()
    glyph_of = {name: glyphs[i % len(glyphs)] for i, name in enumerate(phases)}
    scale = width / duration
    ranks = sorted({s.rank for s in timeline.spans})
    lines: List[str] = [
        f"phase waterfall — {timeline.num_pes} PEs, {duration * 1e3:.1f} ms"
    ]
    for rank in ranks:
        row = [" "] * width
        for span in timeline.iter_spans(cat="phase", rank=rank):
            _paint(row, span.start, span.end, glyph_of[span.name], scale, width)
        for span in timeline.iter_spans(cat="barrier", rank=rank):
            _paint(row, span.start, span.end, "·", scale, width)
        lines.append(f"pe {rank:>3} |{''.join(row)}|")
    lines.append("legend: " + "  ".join(f"{glyph_of[n]}={n}" for n in phases) + "  ·=barrier")
    stage_seconds = timeline.stage_seconds(exclusive=True)
    for name in phases:
        lines.append(f"  {name:<24} {stage_seconds[name] * 1e3:9.2f} ms (excl. barrier)")
    barrier = timeline.barrier_seconds()
    if barrier:
        lines.append(f"  {'barrier wait':<24} {barrier * 1e3:9.2f} ms")
    return "\n".join(lines)


def _paint(
    row: List[str], start: float, end: float, glyph: str, scale: float, width: int
) -> None:
    lo = max(0, min(width - 1, int(start * scale)))
    hi = max(lo, min(width - 1, int(end * scale)))
    for col in range(lo, hi + 1):
        row[col] = glyph
