"""Shared configuration for the figure/table reproduction benchmarks.

Every benchmark uses the pytest-benchmark fixture (so ``--benchmark-only``
runs exactly this suite) and times one cell of the corresponding figure; the
aggregated tables — the actual reproduction artefacts — are printed by the
``*_render_table`` benchmark of each module and recorded in EXPERIMENTS.md.

The ``REPRO_BENCH_SCALE`` environment variable scales the input sizes
(default 1.0); raising it sharpens the trends at the cost of runtime.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest


def bench_scale() -> float:
    """Global input-size multiplier for the benchmark suite."""
    try:
        return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    except ValueError:
        return 1.0


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


@pytest.fixture(scope="session")
def machine_paper_regime():
    """Alpha-beta model rescaled to the paper's bandwidth-dominated regime.

    The simulated inputs are orders of magnitude smaller than the paper's
    250 MB per core; interpreting every simulated byte as ``scale`` real
    bytes restores the paper's ratio of bandwidth cost to per-message latency
    so the *time* panels keep their shape (the volume panels need no such
    adjustment — they are exact).
    """
    from repro.net import DEFAULT_MACHINE

    # simulated ~100 KB per PE stands for the paper's ~250 MB per PE
    return DEFAULT_MACHINE.with_data_scale(2500.0)


def print_experiment(result, metrics=("bytes_per_string", "modeled_time")) -> None:
    """Render an ExperimentResult to stdout (captured with pytest -s)."""
    print()
    print("=" * 78)
    print(f"{result.name}: {result.description}")
    for metric in metrics:
        print()
        print(result.render(metric))
    print("=" * 78)
