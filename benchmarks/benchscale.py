"""Input sizes and output paths of the wall-clock gates in ``benchmarks/``.

The ``REPRO_BENCH_SCALE`` environment variable scales the gates' input
sizes (default 1.0); raising it sharpens the measured ratios at the cost of
runtime.  A value that is not a positive finite number raises
:class:`ValueError` naming the variable.

The module's name is its own, not ``conftest``: ``tests/`` has a
``conftest.py`` too, and ``from conftest import ...`` resolves to whichever
of the two was imported first.
"""

from __future__ import annotations

import math
import os
from pathlib import Path


def bench_scale() -> float:
    """Global input-size multiplier for the benchmark gates."""
    raw = os.environ.get("REPRO_BENCH_SCALE", "1.0")
    try:
        scale = float(raw)
    except ValueError:
        scale = math.nan
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"REPRO_BENCH_SCALE must be a positive number, got {raw!r}")
    return scale


def scaled(n: int, minimum: int = 50) -> int:
    """Scale a nominal input size by the global benchmark scale."""
    return max(minimum, int(n * bench_scale()))


def results_path(name: str) -> Path:
    """Where a benchmark writes its JSON: the gitignored ``benchmarks/out/``.

    The ``BENCH_PR*.json`` files at the repository root are the read-only
    history of earlier PRs; a test run must leave the tree clean.
    """
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    return out / name
