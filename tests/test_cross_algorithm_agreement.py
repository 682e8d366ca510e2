"""Cross-algorithm agreement: every sorter, one truth.

All full-string algorithms must produce byte-identical global outputs (the
sorted input), and the two PDMS variants must produce byte-identical prefix
permutations, on the paper's three stress regimes: tunable D/N, skewed
lengths, and heavy duplication.  Everything is verified through
``repro.strings.checker.check_sort`` *and* against ``sorted()`` ground truth.
"""

import pytest

from engine_conformance import PAPER_ALGORITHMS
from repro.session import SPECS, Cluster, PDMSSpec, spec_class
from repro.strings.checker import check_sort
from repro.strings.generators import dn_instance, skewed_dn_instance

from inputs import duplicate_heavy


FULL_STRING_ALGORITHMS = ("ms", "ms-simple", "hquick", "fkmerge")
PREFIX_ALGORITHMS = ("pdms", "pdms-golomb")

INSTANCES = {
    "dn40": lambda: dn_instance(600, 0.4, length=50, seed=101),
    "skewed": lambda: skewed_dn_instance(500, 0.5, length=40, seed=102),
    "duplicates": lambda: duplicate_heavy(700, 15, 12, seed=103),
}


def test_specs_cover_all_paper_algorithms():
    assert set(PAPER_ALGORITHMS) == set(FULL_STRING_ALGORITHMS) | set(PREFIX_ALGORITHMS)
    assert set(SPECS) == set(PAPER_ALGORITHMS)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_full_string_algorithms_agree(name):
    data = INSTANCES[name]()
    truth = sorted(data)
    flat_outputs = {}
    with Cluster(4) as cluster:
        for algorithm in FULL_STRING_ALGORITHMS:
            res = cluster.sort(data, spec_class(algorithm)(seed=7))
            check_sort(res.inputs_per_pe, res.rank_outputs)
            flat_outputs[algorithm] = res.sorted_strings
    for algorithm, flat in flat_outputs.items():
        assert flat == truth, f"{algorithm} disagrees with ground truth on {name}"


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_prefix_algorithms_agree(name):
    data = INSTANCES[name]()
    truth = sorted(data)
    outputs = {}
    with Cluster(4) as cluster:
        for algorithm in PREFIX_ALGORITHMS:
            res = cluster.sort(data, spec_class(algorithm)(seed=7))
            check_sort(res.inputs_per_pe, res.rank_outputs)
            outputs[algorithm] = res.sorted_strings
    # Golomb coding changes the wire format only, never the detection
    # outcome, so the two variants emit identical prefix streams
    assert outputs["pdms"] == outputs["pdms-golomb"]
    # the sorted prefix stream aligns with the sorted full strings: position
    # by position, the ground-truth string extends the emitted prefix
    prefixes = outputs["pdms"]
    assert len(prefixes) == len(truth)
    for full, prefix in zip(truth, prefixes):
        assert full.startswith(prefix)


class TestDegenerateConfigurations:
    """Regression tests: pathological knobs must degrade safely, not silently."""

    def test_doubling_round_exhaustion_keeps_prefixes_valid(self):
        # epsilon so small the candidate length grows by +1 per round: the
        # 64-round safety net triggers with strings still active, which must
        # retire them at full length (a valid DIST bound), not at zero
        data = [b"x" * 100 + bytes([65 + i]) for i in range(8)]
        res = Cluster(2).sort(data, PDMSSpec(epsilon=0.01, initial_length=1), check=True)
        assert sorted(res.sorted_strings) == sorted(data)

    def test_char_distribution_of_all_empty_strings_stays_balanced(self):
        from repro.dist import distribute_strings

        blocks = distribute_strings([b""] * 10, 4, by="chars")
        assert sum(len(b) for b in blocks) == 10
        assert max(len(b) for b in blocks) - min(len(b) for b in blocks) <= 1


@pytest.mark.parametrize("p", [1, 3, 4])
def test_agreement_across_pe_counts(p):
    data = dn_instance(400, 0.6, length=40, seed=104)
    truth = sorted(data)
    with Cluster(p) as cluster:
        for algorithm in FULL_STRING_ALGORITHMS:
            spec = spec_class(algorithm)(seed=p)
            res = cluster.sort(data, spec, check=True)
            assert res.sorted_strings == truth
