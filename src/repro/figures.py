"""The paper's figures as one table of exact counters.

Each entry of :data:`FIGURES` defines one figure of the paper's evaluation
as its *cells*: one sort each, of a series label, a spec, a PE count, the
pre-distributed input and the data scale of the machine model.
:func:`table` runs every cell of one figure and returns one row of exact
columns per cell (:data:`COLUMNS`).  The CLI (``repro experiment``) prints
the rows and ``tests/test_paper_claims.py`` asserts the paper's claims on
them, so each figure is defined once, here.

* ``fig4`` — Fig. 4, weak scaling over the five D/N inputs;
* ``fig5-commoncrawl`` / ``fig5-dnareads`` — Fig. 5, strong scaling on the
  COMMONCRAWL-like and DNAREADS-like corpora;
* ``suffix`` / ``skewed`` — Sec. VII-E, the suffix instance and string
  versus character sampling on the skewed D/N instance;
* ``ablations`` — LCP compression, sampling, the sample sorter, PDMS's
  growth factor and Golomb coding, one knob at a time.

The paper sorts 500 000 strings of 500 characters per PE on up to 1280
cores; the cells here are a few thousand strings.  Bytes per string are
exact at any size.  Modelled time is not, so the Fig. 4 and Fig. 5 cells
scale the machine model by the paper's input size over theirs
(:meth:`~repro.net.cost_model.MachineModel.with_data_scale`): every
simulated character stands for that many real ones, which keeps the
bandwidth/latency balance of the full-size runs.  No column is a wall
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from .dist.api import SortResult, distribute_strings
from .net.cost_model import DEFAULT_MACHINE
from .session import Cluster, MSSimpleSpec, MSSpec, PDMSGolombSpec, PDMSSpec, SortSpec, spec_class
from .strings import generators

__all__ = ["COLUMNS", "FIGURES", "Cell", "table"]

#: the exact columns of a row, after its ``label`` and ``p``;
#: ``exchange_bytes`` is the merge sorts' bucket all-to-all and reads 0 for
#: hQuick, whose strings move in its ``hquick-partition`` rounds
COLUMNS = (
    "bytes_per_string",
    "chars_inspected_per_string",
    "model_time_s",
    "exchange_bytes",
    "doubling_rounds",
    "imbalance",
    "config_hash",
)

#: the six series of Figs. 4 and 5
SERIES = ("fkmerge", "hquick", "ms-simple", "ms", "pdms-golomb", "pdms")


@dataclass(frozen=True)
class Cell:
    """One sort of a figure."""

    #: the series, prefixed by the input's panel where a figure has several
    label: str
    spec: SortSpec
    p: int
    #: the input, one block per PE
    blocks: Sequence[Sequence[bytes]]
    #: real characters each simulated one stands for in the machine model
    data_scale: float = 1.0


def _fig4(seed: int) -> List[Cell]:
    n, length = 700, 160
    scale = (500_000 * 500) / (n * length)
    cells = []
    for dn in (0.0, 0.25, 0.5, 0.75, 1.0):
        for p in (2, 4, 8):
            blocks = generators.dn_instance_for_pes(p, n, dn, length=length, seed=17 + seed)
            cells += [
                Cell(f"dn={dn:g}/{alg}", spec_class(alg)(seed=seed), p, blocks, scale)
                for alg in SERIES
            ]
    return cells


def _strong_scaling(corpus: List[bytes], paper_bytes: float, spec_seed: int) -> List[Cell]:
    """Fig. 5's pattern: the six series on one corpus over 2..16 PEs."""
    scale = paper_bytes / max(1, sum(len(s) for s in corpus))
    cells = []
    for p in (2, 4, 8, 16):
        blocks = distribute_strings(corpus, p, by="chars")
        cells += [Cell(alg, spec_class(alg)(seed=spec_seed), p, blocks, scale) for alg in SERIES]
    return cells


def _fig5_commoncrawl(seed: int) -> List[Cell]:
    # the paper's COMMONCRAWL instance is 82 GB
    return _strong_scaling(generators.commoncrawl_like(8000, seed=7 + seed), 82e9, 1 + seed)


def _fig5_dnareads(seed: int) -> List[Cell]:
    # the paper's DNAREADS instance is 125 GB
    return _strong_scaling(generators.dna_reads(6000, seed=11 + seed), 125e9, 2 + seed)


def _suffix(seed: int) -> List[Cell]:
    corpus = generators.suffix_instance(
        text_len=5000, alphabet_size=4, max_suffix_len=500, seed=5 + seed
    )
    blocks = distribute_strings(corpus, 8, by="strings")
    return [
        Cell(alg, spec_class(alg)(seed=3 + seed), 8, blocks)
        for alg in ("fkmerge", "ms-simple", "ms", "pdms", "pdms-golomb")
    ]


def _skewed(seed: int) -> List[Cell]:
    corpus = generators.skewed_dn_instance(5000, 0.5, length=120, seed=6 + seed)
    blocks = distribute_strings(corpus, 8, by="strings")
    return [
        Cell(f"{scheme}-sampling", MSSpec(seed=3 + seed, sampling=scheme), 8, blocks)
        for scheme in ("string", "character")
    ]


def _ablations(seed: int) -> List[Cell]:
    s = 4 + seed
    web = distribute_strings(generators.commoncrawl_like(6000, seed=8 + seed), 8, by="chars")
    dna = distribute_strings(generators.dna_reads(5000, seed=9 + seed), 8, by="chars")
    arms = [
        ("web/ms-simple", MSSimpleSpec(seed=s), web),
        ("web/ms", MSSpec(seed=s), web),
        ("web/ms-char-sampling", MSSpec(seed=s, sampling="character"), web),
        ("web/ms-hquick-samples", MSSpec(seed=s, sample_sort="hquick"), web),
        ("web/pdms", PDMSSpec(seed=s), web),
        ("dna/pdms-eps0.5", PDMSSpec(seed=s, epsilon=0.5), dna),
        ("dna/pdms-eps1", PDMSSpec(seed=s), dna),
        ("dna/pdms-eps3", PDMSSpec(seed=s, epsilon=3.0), dna),
        ("dna/pdms-golomb", PDMSGolombSpec(seed=s), dna),
        ("dna/ms", MSSpec(seed=s), dna),
    ]
    return [Cell(label, spec, 8, blocks) for label, spec, blocks in arms]


#: figure name -> its cells at a seed; seed 0 is the table the tests pin,
#: and another seed shifts every input and spec seed by that much
FIGURES: Dict[str, Callable[[int], List[Cell]]] = {
    "fig4": _fig4,
    "fig5-commoncrawl": _fig5_commoncrawl,
    "fig5-dnareads": _fig5_dnareads,
    "suffix": _suffix,
    "skewed": _skewed,
    "ablations": _ablations,
}


def _imbalance(result: SortResult) -> float:
    """Largest over mean output characters per PE (1.0: perfectly even)."""
    sizes = [r.strings.num_chars for r in result.rank_outputs]
    mean = sum(sizes) / len(sizes)
    return max(sizes) / mean if mean else 1.0


def table(name: str, seed: int = 0) -> List[Dict[str, object]]:
    """Sort every cell of figure ``name``; one row per cell, in cell order.

    Each sort runs on a fresh :class:`~repro.session.Cluster` of the cell's
    PE count and machine, with ``check=True``.  A row is the cell's
    ``label`` and ``p`` followed by :data:`COLUMNS`; every value is a
    deterministic function of ``name`` and ``seed``.
    """
    rows: List[Dict[str, object]] = []
    for cell in FIGURES[name](seed):
        machine = DEFAULT_MACHINE.with_data_scale(cell.data_scale)
        with Cluster(cell.p, machine=machine) as cluster:
            result = cluster.sort(cell.blocks, cell.spec, pre_distributed=True, check=True)
        report = result.report
        rows.append({
            "label": cell.label,
            "p": cell.p,
            "bytes_per_string": result.bytes_per_string(),
            "chars_inspected_per_string": sum(report.chars_inspected_per_pe) / result.num_strings,
            "model_time_s": result.modeled_time(),
            "exchange_bytes": report.phase_bytes.get("exchange", 0),
            "doubling_rounds": result.extra.get("doubling_rounds", 0),
            "imbalance": _imbalance(result),
            "config_hash": cell.spec.config_hash(),
        })
    return rows
