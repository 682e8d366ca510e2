"""Design-choice ablations discussed throughout Sections V-VII.

One benchmark per variant, all on the COMMONCRAWL-like corpus (where the LCP
machinery matters most) and on a DNA corpus for the prefix-doubling knobs:

* MS-simple -> MS             : LCP compression + LCP merging
* MS string vs character sampling
* MS central vs hQuick sample sorting
* PDMS epsilon (growth factor) sweep
* PDMS with / without Golomb coding
"""

from __future__ import annotations

import pytest

from conftest import print_experiment, scaled
from repro.bench.harness import ExperimentResult, ExperimentRunner
from repro.dist.api import distribute_strings
from repro.session import MSSimpleSpec, MSSpec, PDMSGolombSpec, PDMSSpec
from repro.strings.generators import commoncrawl_like, dna_reads

SEED = 4
_RUNNER = ExperimentRunner(seed=SEED)
P = 8

_WEB = distribute_strings(commoncrawl_like(scaled(6000), seed=8), P, by="chars")
_DNA = distribute_strings(dna_reads(scaled(5000), seed=9), P, by="chars")

_RESULT = ExperimentResult(
    name="ablations",
    description="Design-choice ablations (COMMONCRAWL-like and DNAREADS-like corpora)",
)

VARIANTS = [
    # (label, spec, blocks)
    ("web/ms-simple", MSSimpleSpec(seed=SEED), "_WEB"),
    ("web/ms", MSSpec(seed=SEED), "_WEB"),
    ("web/ms-char-sampling", MSSpec(seed=SEED, sampling="character"), "_WEB"),
    ("web/ms-hquick-samples", MSSpec(seed=SEED, sample_sort="hquick"), "_WEB"),
    ("web/pdms", PDMSSpec(seed=SEED), "_WEB"),
    ("dna/pdms-eps0.5", PDMSSpec(seed=SEED, epsilon=0.5), "_DNA"),
    ("dna/pdms-eps1", PDMSSpec(seed=SEED), "_DNA"),
    ("dna/pdms-eps3", PDMSSpec(seed=SEED, epsilon=3.0), "_DNA"),
    ("dna/pdms-golomb", PDMSGolombSpec(seed=SEED), "_DNA"),
    ("dna/ms", MSSpec(seed=SEED), "_DNA"),
]


@pytest.mark.parametrize(
    "label, spec, blocks_name", VARIANTS, ids=[v[0] for v in VARIANTS]
)
def test_ablation_cell(benchmark, label, spec, blocks_name):
    blocks = _WEB if blocks_name == "_WEB" else _DNA
    cell = benchmark.pedantic(
        _RUNNER.run_cell,
        args=(_RESULT.name, spec, P, label, blocks),
        rounds=1,
        iterations=1,
    )
    cell.extra["variant"] = label
    _RESULT.add(cell)
    benchmark.extra_info["bytes_per_string"] = round(cell.bytes_per_string, 2)


def test_ablation_render_and_shape(benchmark):
    benchmark(lambda: _RESULT.render("bytes_per_string"))
    print_experiment(_RESULT)

    def volume(label):
        return next(c for c in _RESULT.cells if c.extra["variant"] == label).bytes_per_string

    # LCP compression is the dominant saving on web text
    assert volume("web/ms") < volume("web/ms-simple")
    # the sampling scheme and the sample sorter do not change the exchange
    # volume materially (they affect balance/latency, not payload)
    assert volume("web/ms-char-sampling") == pytest.approx(volume("web/ms"), rel=0.35)
    assert volume("web/ms-hquick-samples") == pytest.approx(volume("web/ms"), rel=0.35)

    def cell(label):
        return next(c for c in _RESULT.cells if c.extra["variant"] == label)

    # finer growth factors approximate D more tightly (smaller exchange
    # payload) at the price of more duplicate-detection rounds — the tradeoff
    # Section VI-A describes for the choice of epsilon
    assert (
        cell("dna/pdms-eps0.5").extra["phase_bytes"]["exchange"]
        <= cell("dna/pdms-eps3").extra["phase_bytes"]["exchange"] * 1.05
    )
    assert (
        cell("dna/pdms-eps0.5").extra["doubling_rounds"]
        >= cell("dna/pdms-eps3").extra["doubling_rounds"]
    )
    # Golomb coding never increases the volume
    assert volume("dna/pdms-golomb") <= volume("dna/pdms-eps1") * 1.02
    # prefix doubling beats MS on the DNA corpus
    assert volume("dna/pdms-eps1") < volume("dna/ms")
