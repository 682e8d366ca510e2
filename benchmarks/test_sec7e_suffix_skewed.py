"""Section VII-E experiments: the suffix instance and the skewed D/N instance.

* Suffix instance: all suffixes of a text, D/N ~ 1e-4 in the paper.  PDMS is
  reported to be about 30x faster than every other algorithm at p = 160
  because it only communicates the tiny distinguishing prefixes.  The
  reproduction asserts the corresponding communication-volume gap.

* Skewed D/N instance: the 20 % smallest strings are padded to 4x length
  without contributing to the distinguishing prefix.  The paper reports that
  character-based sampling now pays off because it avoids the load imbalance
  string-based sampling incurs on the skewed output lengths.
"""

from __future__ import annotations

import pytest

from conftest import print_experiment, scaled
from repro.bench.harness import ExperimentResult, ExperimentRunner
from repro.dist.api import distribute_strings
from repro.session import MSSpec
from repro.strings.generators import skewed_dn_instance, suffix_instance

_RUNNER = ExperimentRunner(seed=3)

# ---------------------------------------------------------------------------
# suffix instance
# ---------------------------------------------------------------------------

SUFFIX_TEXT_LEN = scaled(5000)
SUFFIX_ALGOS = ("fkmerge", "ms-simple", "ms", "pdms", "pdms-golomb")
_SUFFIX_CORPUS = suffix_instance(
    text_len=SUFFIX_TEXT_LEN, alphabet_size=4, max_suffix_len=500, seed=5
)
_SUFFIX_RESULT = ExperimentResult(
    name="sec7e-suffix",
    description=f"Suffix instance: {SUFFIX_TEXT_LEN} suffixes, D/N << 1",
)


@pytest.mark.parametrize("algorithm", SUFFIX_ALGOS)
def test_suffix_instance_cell(benchmark, algorithm):
    p = 8
    blocks = distribute_strings(_SUFFIX_CORPUS, p, by="strings")
    cell = benchmark.pedantic(
        _RUNNER.run_cell,
        args=(_SUFFIX_RESULT.name, algorithm, p, "wiki-suffixes", blocks),
        rounds=1,
        iterations=1,
    )
    _SUFFIX_RESULT.add(cell)
    benchmark.extra_info["bytes_per_string"] = round(cell.bytes_per_string, 2)


def test_suffix_instance_render_and_shape(benchmark):
    benchmark(lambda: _SUFFIX_RESULT.render("bytes_per_string"))
    print_experiment(_SUFFIX_RESULT)

    def volume(alg):
        return _SUFFIX_RESULT.filter(algorithm=alg)[0].bytes_per_string

    # the headline claim: PDMS communicates a small fraction of what the
    # full-string algorithms move (paper: ~30x running-time advantage)
    assert volume("pdms") < volume("ms") / 10
    assert volume("pdms") < volume("ms-simple") / 10
    assert volume("pdms-golomb") <= volume("pdms") * 1.05


# ---------------------------------------------------------------------------
# skewed D/N instance: string- vs character-based sampling
# ---------------------------------------------------------------------------

SKEW_STRINGS = scaled(5000)
_SKEW_CORPUS = skewed_dn_instance(SKEW_STRINGS, 0.5, length=120, seed=6)
_SKEW_RESULT = ExperimentResult(
    name="sec7e-skewed-sampling",
    description=f"Skewed D/N instance ({SKEW_STRINGS} strings), MS sampling schemes",
)


@pytest.mark.parametrize("scheme", ("string", "character"))
def test_skewed_sampling_cell(benchmark, scheme):
    p = 8
    blocks = distribute_strings(_SKEW_CORPUS, p, by="strings")
    cell = benchmark.pedantic(
        _RUNNER.run_cell,
        args=(
            _SKEW_RESULT.name,
            MSSpec(seed=_RUNNER.seed, sampling=scheme),
            p,
            f"skewed-{scheme}",
            blocks,
        ),
        rounds=1,
        iterations=1,
    )
    cell.extra["sampling"] = scheme
    _SKEW_RESULT.add(cell)
    benchmark.extra_info["imbalance"] = round(cell.imbalance, 3)


def test_skewed_sampling_render_and_shape(benchmark):
    benchmark(lambda: _SKEW_RESULT.render("imbalance"))
    print_experiment(_SKEW_RESULT, metrics=("imbalance", "bytes_per_string"))

    by_scheme = {c.extra["sampling"]: c for c in _SKEW_RESULT.cells}
    # character-based sampling balances the output characters at least as well
    # as string-based sampling on the skewed instance (paper, Section VII-E)
    assert by_scheme["character"].imbalance <= by_scheme["string"].imbalance * 1.05
