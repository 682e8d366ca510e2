"""The six workloads: what each sorts, with which spec, on which machine.

The one-line reason for each workload lives in ``BENCHMARK.json`` (``why``)
and at length in ``README.md``; this table holds only what the code needs.
Sizes and op counts are for ``--scale 1`` on the 2-CPU host the README
names: the timed region of every workload takes 10-13 s there, under the
``run_seconds`` cap, and at least ten ops lie beyond the 75th percentile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass(frozen=True)
class Workload:
    """One named input + spec + machine configuration."""

    name: str
    #: ``generate(seed, scale)`` -> the input strings
    generate: Callable[[int, float], List[bytes]]
    #: name of the spec class on the ``repro`` package
    spec: str
    num_pes: int
    #: timed ops of one end-to-end run, after the warm-up ops; a whole number
    #: of passes over the chunks on a stream
    ops: int
    engine: str = "threads"
    topology: Optional[str] = None
    #: > 0: the input is fed through ``sort_batches`` in chunks of this many
    #: strings and one op is one batch
    chunk: int = 0


def _dn(seed: int, scale: float) -> List[bytes]:
    from repro.strings import dn_instance

    return dn_instance(int(20000 * scale), 0.5, length=100, seed=seed)


def _web(seed: int, scale: float) -> List[bytes]:
    from repro.strings import commoncrawl_like

    return commoncrawl_like(int(15000 * scale), seed=seed)


def _dna(seed: int, scale: float) -> List[bytes]:
    from repro.strings import dna_reads

    return dna_reads(int(12000 * scale), seed=seed)


def _wide(seed: int, scale: float) -> List[bytes]:
    from repro.strings import dn_instance

    return dn_instance(int(20000 * scale), 0.0, length=500, seed=seed)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("dn_ms_t4", _dn, "MSSpec", 4, ops=57),
        Workload("dn_ms_t1", _dn, "MSSpec", 1, ops=281),
        Workload("web_ms_t4", _web, "MSSpec", 4, ops=85),
        Workload("dna_pdmsg_t4", _dna, "PDMSGolombSpec", 4, ops=57),
        Workload("wide_mssimple_hc_t8", _wide, "MSSimpleSpec", 8, ops=71, topology="hypercube"),
        Workload("stream_ms_x2", _dn, "MSSpec", 2, ops=400, engine="processes", chunk=500),
    )
}
