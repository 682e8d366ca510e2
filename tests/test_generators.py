"""Unit tests for the workload generators (Section VII-A inputs)."""

import hashlib
import struct

import numpy as np
import pytest

from repro.cli import _GENERATORS, main
from repro.strings.generators import (
    commoncrawl_like,
    dn_instance,
    dn_instance_for_pes,
    dna_reads,
    random_strings,
    skewed_dn_instance,
    suffix_instance,
)
from repro.strings.lcp import dn_ratio, merge_lcp_statistics

from inputs import duplicate_heavy


class TestDnInstance:
    def test_counts_and_lengths(self):
        data = dn_instance(200, 0.5, length=80, seed=1)
        assert len(data) == 200
        assert all(len(s) == 80 for s in data)

    def test_all_strings_distinct(self):
        data = dn_instance(500, 0.5, length=64, seed=2)
        assert len(set(data)) == 500

    def test_dn_zero_distinguishes_at_front(self):
        data = dn_instance(100, 0.0, length=64, seed=3)
        # no shared filler prefix: the first few characters already differ
        assert dn_ratio(data) < 0.15

    def test_dn_one_distinguishes_at_back(self):
        data = dn_instance(100, 1.0, length=64, seed=3)
        assert dn_ratio(data) > 0.9

    def test_intermediate_ratios_are_ordered(self):
        ratios = [dn_ratio(dn_instance(150, r, length=64, seed=4)) for r in (0.25, 0.5, 0.75)]
        assert ratios[0] < ratios[1] < ratios[2]

    def test_deterministic_given_seed(self):
        a = dn_instance(50, 0.5, seed=9)
        b = dn_instance(50, 0.5, seed=9)
        assert a == b

    def test_shuffle_flag(self):
        unshuffled = dn_instance(50, 0.0, length=16, seed=5, shuffle=False)
        assert unshuffled == sorted(unshuffled)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            dn_instance(10, -0.1)
        with pytest.raises(ValueError):
            dn_instance(10, 1.5)
        with pytest.raises(ValueError):
            dn_instance(10, 0.5, length=0)


class TestSkewedDnInstance:
    def test_padded_strings_are_longer(self):
        data = skewed_dn_instance(200, 0.5, length=50, seed=1)
        lengths = sorted({len(s) for s in data})
        assert lengths == [50, 200]

    def test_pad_fraction_respected(self):
        data = skewed_dn_instance(200, 0.5, length=50, pad_fraction=0.2, seed=1)
        long_count = sum(1 for s in data if len(s) == 200)
        assert long_count == pytest.approx(40, abs=1)

    def test_padding_does_not_change_distinguishing_prefixes(self):
        base = dn_instance(150, 0.5, length=50, seed=2, shuffle=False)
        skew = skewed_dn_instance(150, 0.5, length=50, seed=2)
        # total D identical: the padding never needs to be inspected
        from repro.strings.lcp import distinguishing_prefix_size

        assert distinguishing_prefix_size(base) == distinguishing_prefix_size(skew)


class TestDnInstanceForPes:
    def test_shapes(self):
        blocks = dn_instance_for_pes(4, 50, 0.5, length=32, seed=1)
        assert len(blocks) == 4
        assert all(len(b) == 50 for b in blocks)

    def test_union_is_the_global_instance(self):
        blocks = dn_instance_for_pes(3, 40, 0.25, length=32, seed=2)
        flat = [s for b in blocks for s in b]
        assert len(set(flat)) == 120


class TestRandomStrings:
    def test_length_bounds(self):
        data = random_strings(300, 2, 7, seed=1)
        assert all(2 <= len(s) <= 7 for s in data)

    def test_alphabet_bound(self):
        data = random_strings(100, 1, 10, alphabet_size=3, seed=2)
        assert set(b"".join(data)) <= set(b"abc")

    def test_zero_length_allowed(self):
        data = random_strings(50, 0, 2, seed=3)
        assert len(data) == 50

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            random_strings(10, 5, 2)


def _digest(strings):
    """sha256 over each string as a 4-byte little-endian length plus its
    bytes, first 16 hex digits."""
    h = hashlib.sha256()
    for s in strings:
        h.update(struct.pack("<I", len(s)))
        h.update(s)
    return h.hexdigest()[:16]


#: ``commoncrawl_like(size, seed=seed)`` for every size and seed the repo
#: generates: the figures (Fig. 5 web panel at seeds 0 and 1, ablations),
#: perfbench's ``web_ms_t4`` (15000 lines), the two benchmark fixtures and
#: the test corpora.  A change to the generator that moves one of these
#: moves the figure fixtures and perfbench's exact metrics with it.
_COMMONCRAWL_DIGESTS = {
    (50, 1): "90655bc1741bb14d",  # the CLI registry test
    (100, 5): "a505380f9af7560c",
    (500, 5): "476ba9cd61c67587",
    (500, 13): "ebe8f84dcacca0a8",
    (500, 201): "0864683db08347fa",
    (600, 4): "83cf9e93c725433c",
    (1500, 20): "9ceef7068d13f50f",
    (2000, 1): "f35e4ab65f016a01",
    (4000, 7): "dbc14895ec4a46b3",
    (6000, 8): "cd68b4814651f68e",  # ablations, seed 0
    (6000, 9): "0882a05dbe9ee7fe",  # ablations, seed 1
    (8000, 7): "794d7f693ef54884",  # fig5-commoncrawl, seed 0
    (8000, 8): "499ab21417d0708c",  # fig5-commoncrawl, seed 1
    (15000, 1): "fd18a68c5aa09fd0",  # web_ms_t4, default seed
    (15000, 56): "1b57f96bfce6ad6a",  # web_ms_t4, seed 56
    (20000, 23): "deeb2c52a8c325e8",  # benchmarks/test_obs_overhead.py
    (100000, 11): "b86239e3a4a94b81",  # benchmarks/test_packed_hotpath.py
}


class TestCommoncrawlLike:
    @pytest.mark.parametrize("size, seed", sorted(_COMMONCRAWL_DIGESTS))
    def test_corpus_is_pinned(self, size, seed):
        assert _digest(commoncrawl_like(size, seed=seed)) == _COMMONCRAWL_DIGESTS[size, seed]

    @pytest.mark.parametrize("seed", [0, 1, 7, 56, 2024])
    def test_one_cdf_draws_what_choice_draws(self, seed):
        """numpy is the oracle: ``searchsorted`` on the normalised cumulative
        sum consumes the stream exactly as ``Generator.choice(p=...)`` does."""
        vocab_size = 4000
        probs = 1.0 / np.arange(1, vocab_size + 1, dtype=np.float64)
        probs /= probs.sum()
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(200):
            assert int(cdf.searchsorted(rng.random(), side="right")) == int(
                twin.choice(vocab_size, p=probs)
            )
            assert cdf.searchsorted(rng.random(4), side="right").tolist() == (
                twin.choice(vocab_size, size=4, p=probs).tolist()
            )
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_statistics_in_paper_ballpark(self):
        corpus = commoncrawl_like(4000, seed=7)
        ratio = dn_ratio(corpus)
        _, lcp_frac = merge_lcp_statistics(corpus)
        avg_len = sum(len(s) for s in corpus) / len(corpus)
        # paper: D/N = 0.68, LCP fraction 0.60, average line 40 characters
        assert 0.45 <= ratio <= 0.85
        assert 0.40 <= lcp_frac <= 0.75
        assert 25 <= avg_len <= 60

    def test_contains_duplicate_lines(self):
        corpus = commoncrawl_like(2000, seed=1)
        assert len(set(corpus)) < len(corpus)

    def test_alphabet_is_large(self):
        corpus = commoncrawl_like(2000, seed=1)
        assert len({b for s in corpus for b in s}) > 60

    def test_deterministic(self):
        assert commoncrawl_like(100, seed=5) == commoncrawl_like(100, seed=5)


class TestDnaReads:
    def test_alphabet_is_acgt(self):
        reads = dna_reads(500, seed=1)
        assert set(b"".join(reads)) <= set(b"ACGT")

    def test_read_length(self):
        reads = dna_reads(200, read_len=77, seed=2)
        assert all(len(r) == 77 for r in reads)

    def test_dn_in_paper_ballpark(self):
        reads = dna_reads(3000, seed=11)
        # paper: D/N = 0.38 for DNAREADS
        assert 0.2 <= dn_ratio(reads) <= 0.6

    def test_no_repeats_lowers_dn(self):
        with_repeats = dna_reads(1500, seed=3)
        without = dna_reads(1500, repeat_fraction=0.0, seed=3)
        assert dn_ratio(without) < dn_ratio(with_repeats)


class TestSuffixInstance:
    def test_number_of_suffixes(self):
        data = suffix_instance(text_len=100, seed=1)
        assert len(data) == 100
        assert sorted({len(s) for s in data}) == list(range(1, 101))

    def test_truncation(self):
        data = suffix_instance(text_len=100, max_suffix_len=10, seed=1)
        assert max(len(s) for s in data) == 10

    def test_dn_is_small(self):
        data = suffix_instance(text_len=1500, alphabet_size=4, max_suffix_len=200, seed=2)
        assert dn_ratio(data) < 0.1


class TestDuplicateHeavy:
    def test_number_of_distinct_values(self):
        data = duplicate_heavy(1000, num_distinct=20, seed=1)
        assert len(set(data)) <= 20
        assert len(data) == 1000


class TestRegistry:
    """The named workloads ``repro sort -w`` and ``repro generate`` offer."""

    @pytest.mark.parametrize("name", sorted(_GENERATORS))
    def test_named_generators_produce_strings(self, name):
        gen = _GENERATORS[name]
        data = gen(50, 1)
        assert len(data) == 50
        assert all(isinstance(s, bytes) for s in data)
        assert gen(50, 1) == data  # the seed fixes the workload

    def test_unknown_name(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "nope", "-o", str(tmp_path / "unused.txt")])
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
