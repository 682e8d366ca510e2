"""Tests for the distinguishing-prefix approximation (Step 1+epsilon, Theorem 6)."""

import hashlib

import pytest

from repro.dist.prefix_doubling import approximate_dist_prefixes
from repro.mpi import run_spmd
from repro.strings.generators import dn_instance, dna_reads, random_strings, suffix_instance

from inputs import duplicate_heavy
from oracles.lcp import distinguishing_prefixes


def _run(blocks, **kwargs):
    def prog(comm, strings):
        return approximate_dist_prefixes(comm, strings, **kwargs)

    results, report = run_spmd(len(blocks), prog, args_per_rank=[(b,) for b in blocks])
    return results, report


def _blocks(strings, p):
    n = len(strings)
    return [strings[r * n // p : (r + 1) * n // p] for r in range(p)]


class TestCorrectness:
    """The central safety property: approx >= true DIST for every string."""

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_never_underestimates_random(self, p):
        strings = random_strings(400, 1, 20, alphabet_size=4, seed=p)
        blocks = _blocks(strings, p)
        results, _ = _run(blocks)
        flat_lengths = [x for r in results for x in r.lengths]
        true = distinguishing_prefixes(strings)
        for approx, exact in zip(flat_lengths, true):
            assert approx >= exact

    def test_never_underestimates_dn_instance(self):
        strings = dn_instance(300, 0.5, length=60, seed=1)
        blocks = _blocks(strings, 4)
        results, _ = _run(blocks)
        flat = [x for r in results for x in r.lengths]
        true = distinguishing_prefixes(strings)
        assert all(a >= t for a, t in zip(flat, true))

    def test_never_underestimates_duplicates(self):
        strings = duplicate_heavy(300, 12, 10, seed=2)
        blocks = _blocks(strings, 3)
        results, _ = _run(blocks)
        flat = [x for r in results for x in r.lengths]
        true = distinguishing_prefixes(strings)
        assert all(a >= t for a, t in zip(flat, true))

    def test_exact_duplicates_get_full_length(self):
        strings = [b"clone"] * 20 + [b"unique-string"]
        blocks = _blocks(strings, 2)
        results, _ = _run(blocks)
        flat = [x for r in results for x in r.lengths]
        for s, d in zip([s for b in blocks for s in b], flat):
            if s == b"clone":
                assert d == len(b"clone")

    def test_lengths_never_exceed_string_length(self):
        strings = random_strings(200, 0, 15, seed=3)
        blocks = _blocks(strings, 4)
        results, _ = _run(blocks)
        for block, res in zip(blocks, results):
            for s, d in zip(block, res.lengths):
                assert d <= len(s)

    def test_empty_strings(self):
        strings = [b"", b"", b"a"]
        results, _ = _run(_blocks(strings, 2))
        flat = [x for r in results for x in r.lengths]
        assert flat[:2] == [0, 0]


class TestApproximationQuality:
    def test_overestimate_bounded_by_growth_factor(self):
        """With doubling, the result is < 2x the true DIST (plus the start guess)."""
        strings = dn_instance(400, 0.3, length=80, seed=4)
        blocks = _blocks(strings, 4)
        results, _ = _run(blocks, epsilon=1.0)
        flat = [x for r in results for x in r.lengths]
        true = distinguishing_prefixes(strings)
        for approx, exact, s in zip(flat, true, [s for b in blocks for s in b]):
            assert approx <= min(len(s), max(2 * exact, 16))

    def test_smaller_epsilon_tightens_the_estimate(self):
        strings = suffix_instance(text_len=600, alphabet_size=3, max_suffix_len=300, seed=5)
        blocks = _blocks(strings, 4)
        coarse, _ = _run(blocks, epsilon=3.0)
        fine, _ = _run(blocks, epsilon=0.25)
        total_coarse = sum(x for r in coarse for x in r.lengths)
        total_fine = sum(x for r in fine for x in r.lengths)
        assert total_fine <= total_coarse

    def test_epsilon_must_be_positive(self):
        from repro.mpi import SpmdError

        with pytest.raises(SpmdError):
            _run(_blocks([b"a", b"b"], 2), epsilon=0.0)

    @pytest.mark.parametrize("bits", [0, 65])
    def test_fingerprint_width_must_fit_64_bits(self, bits):
        from repro.mpi import SpmdError

        with pytest.raises(SpmdError) as excinfo:
            _run(_blocks([b"a", b"b"], 2), bits=bits)
        assert "bits must be in [1, 64]" in str(excinfo.value.__cause__)


class TestProtocolBehaviour:
    def test_round_counts_grow_logarithmically(self):
        strings = dn_instance(200, 0.8, length=128, seed=6)
        blocks = _blocks(strings, 4)
        results, _ = _run(blocks, initial_length=2, epsilon=1.0)
        # distinguishing prefixes are ~100 chars; doubling from 2 needs ~6-7
        # rounds, far below the 64-round safety bound
        assert 3 <= results[0].rounds <= 12
        assert all(r.rounds == results[0].rounds for r in results)

    def test_round_active_counts_decrease(self):
        strings = random_strings(500, 5, 30, alphabet_size=4, seed=7)
        blocks = _blocks(strings, 4)
        results, _ = _run(blocks)
        counts = results[0].round_active_counts
        assert counts == sorted(counts, reverse=True)

    def test_golomb_flag_reduces_traffic(self):
        strings = random_strings(1500, 10, 40, alphabet_size=4, seed=8)
        blocks = _blocks(strings, 4)
        _, plain = _run(blocks, golomb=False)
        _, packed = _run(blocks, golomb=True)
        assert packed.total_bytes_sent < plain.total_bytes_sent

    def test_fingerprints_sent_counted(self):
        strings = random_strings(100, 5, 10, seed=9)
        blocks = _blocks(strings, 2)
        results, _ = _run(blocks)
        assert all(r.fingerprints_sent >= len(b) for r, b in zip(results, blocks))

    def test_single_pe_degenerates_gracefully(self):
        strings = random_strings(100, 1, 10, seed=10)
        results, report = _run([strings])
        assert len(results[0].lengths) == 100
        true = distinguishing_prefixes(strings)
        assert all(a >= t for a, t in zip(results[0].lengths, true))

    def test_max_rounds_safety_net_retires_with_full_length(self):
        # growth of +1 per round from length 1 cannot reach 100 chars in 64 rounds
        strings = [b"x" * 100, b"x" * 100, b"y"]
        results, _ = _run([strings], initial_length=1, epsilon=1e-9)
        assert results[0].rounds == 64
        assert results[0].lengths == [100, 100, 1]


class TestPinnedRun:
    """One run recorded from the per-string list implementation: the array
    bookkeeping must leave every observable of the protocol bit-equal.  Only
    the byte totals depend on the fingerprint hash (its values set how many
    fingerprints each home PE gets and how well they Golomb-code)."""

    @pytest.mark.parametrize(
        "golomb, total_bytes_sent", [(False, 5270), (True, 4869)], ids=["pdms", "pdms-golomb"]
    )
    def test_dna_reads_p4(self, engine, golomb, total_bytes_sent):
        results, report = _run(_blocks(dna_reads(600, seed=17), 4), golomb=golomb)
        lengths = [r.lengths for r in results]
        assert all(type(x) is int for per_rank in lengths for x in per_rank)
        assert [sum(per_rank) for per_rank in lengths] == [7164, 6998, 7637, 7589]
        digest = hashlib.blake2b(repr(lengths).encode(), digest_size=8).hexdigest()
        assert digest == "704ae634e3ce19a5"
        assert [r.rounds for r in results] == [4] * 4
        assert [r.round_active_counts for r in results] == [[600, 275, 249, 212]] * 4
        assert [r.fingerprints_sent for r in results] == [327, 320, 345, 344]
        assert report.total_bytes_sent == total_bytes_sent
