"""Tests for distributed duplicate detection and the Golomb fingerprint coding."""

import hashlib
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dist.duplicates import (
    BitVector,
    FingerprintBlock,
    extend_prefix_hashes,
    mix_fingerprints,
    unique_fingerprint_mask,
)
from repro.dist.golomb import GolombCodedSet, coded_sizes, golomb_parameter
from repro.mpi import run_spmd
from repro.mpi.serialization import varint_size
from repro.strings import PackedStringArray, dna_reads

from inputs import duplicate_heavy, thue_morse
from oracles.golomb import decode_sorted, encode_sorted


# ``encode_sorted`` output recorded from the bit-at-a-time writer this encoder
# replaced: name -> (values, universe, payload hex, m).  The cases: no value,
# one value, m = 1 (unary only), power-of-two m (cutoff 0, every remainder
# b bits), m = 2, repeated values, a unary run longer than 64 bits, and
# universes 7 / 2^16 / 2^38 / 2^62 / 2^64 (values and m beyond int64).
GOLDEN_SMALL = {
    "empty": ([], 100, "", 1),
    "one": ([5], 1 << 16, "0005", 45427),
    "m1": ([0, 0, 1, 2, 3, 3, 4, 5, 6, 6], 7, "2a54", 1),
    "pow2_m": ([0, 17, 18, 91], 92, "0421f480", 16),
    "m2": ([1, 2, 2, 5, 9, 10, 11, 11], 23, "52e280", 2),
    "repeated": ([7, 7, 7, 9, 9], 1 << 16, "001c00000000020000", 9086),
    "big_quotient": ([400], 7, "ffffffffffffffffffff00", 5),
    "u7": ([0, 2, 3, 6], 7, "2340", 2),
    "u16": ([3, 900, 901, 40000, 65535], 1 << 16, "000c3810007cac3dca28", 9086),
    "u38": (
        [12345, 1 << 20, (1 << 37) + 99, (1 << 38) - 1],
        1 << 38,
        "0000030390000fcfc7dd751703d3baea6e0488",
        47632711550,
    ),
    "u62": (
        [0, 1 << 40, (1 << 61) + 12345, (1 << 62) - 1],
        1 << 62,
        "000000000000000000010000000000dd75350311529373baea6e0622a3a518",
        799144290325165952,
    ),
    "u64": (
        [1, (1 << 63) - 1, 1 << 63, (1 << 64) - 1],
        1 << 64,
        "000000000000000775d4dc0c4548cbfc000000000000000eeba9b8188a9197fc",
        3196577161300663808,
    ),
    "u64_one": ([(1 << 64) - 1], 1 << 64, "a746f404171843ff80", 12786308645202655232),
}

# the same for ``sorted(Random(seed).randrange(universe) for _ in range(n))``:
# name -> (universe, n, seed, blake2b-8 hex of the payload, payload bytes, m)
GOLDEN_BULK = {
    "u7": (7, 40, 1, "feeab57f4be273d9", 6, 1),
    "u16": (1 << 16, 700, 2, "2b731f168d1c48db", 703, 65),
    "u38": (1 << 38, 3000, 3, "866b235505a627e6", 10473, 63510283),
    "u62": (1 << 62, 500, 4, "63742569af3e3826", 3407, 6393154322601328),
    "u64": (1 << 64, 500, 5, "6c7491b48400533b", 3532, 25572617290405312),
}


M64 = (1 << 64) - 1
PRIMES = ((1 << 31) - 1, 2147483629)


def _fmix64(x):
    for mult in (0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53):
        x = ((x ^ (x >> 33)) * mult) & M64
    return x ^ (x >> 33)


BASES = tuple(257 + _fmix64(k) % (p - 257) for k, p in zip((1, 2), PRIMES))


def reference_fingerprint(s, length, salt, bits):
    """The fingerprint by its definition, one character at a time."""
    hashes = []
    for base, prime in zip(BASES, PRIMES):
        h = 0
        for j in range(length):
            h = (h * base + (s[j] + 1 if j < len(s) else 0)) % prime
        hashes.append(h)
    key = (salt * 0x9E3779B97F4A7C15) & M64
    return _fmix64(((hashes[0] << 31) | hashes[1]) ^ key) & ((1 << bits) - 1)


def fingerprints(strings, length, salt=0, bits=64):
    """Every string's fingerprint at ``length``, hashed from scratch."""
    packed = PackedStringArray.from_strings(strings)
    rows = np.arange(len(packed))
    hashes = extend_prefix_hashes(np.zeros((2, rows.size), np.int64), packed, rows, 0, length)
    return mix_fingerprints(hashes, salt, bits)


def candidate_lengths(initial_length=16, epsilon=1.0):
    """The doubling protocol's candidate lengths, round by round."""
    candidate = initial_length
    while True:
        yield candidate
        candidate = max(int(math.floor(candidate * (1.0 + epsilon))), candidate + 1)


def round_fingerprints(strings, bits=40, rounds=None, **schedule):
    """``(salt, length, fingerprints)`` of every string per doubling round,
    extended incrementally as the protocol does (no string retires)."""
    packed = PackedStringArray.from_strings(strings)
    rows = np.arange(len(packed))
    hashes, lo = np.zeros((2, rows.size), np.int64), 0
    rounds = rounds or max(packed.max_len.bit_length(), 1) + 1
    for salt, length in zip(range(1, rounds + 1), candidate_lengths(**schedule)):
        hashes = extend_prefix_hashes(hashes, packed, rows, lo, length)
        lo = length
        yield salt, length, mix_fingerprints(hashes, salt, bits)


_bytes_with_edges = st.lists(st.sampled_from(b"\x00\x01a\xfe\xff"), max_size=45).map(bytes)


class TestPrefixFingerprints:
    @given(st.lists(_bytes_with_edges, min_size=1, max_size=12), st.integers(1, 60),
           st.sampled_from([0, 1, 7, 64]), st.sampled_from([1, 16, 40, 64]))
    @settings(max_examples=80)
    def test_matches_the_definition(self, strings, length, salt, bits):
        got = fingerprints(strings, length, salt, bits)
        assert got.dtype == np.uint64
        assert got.tolist() == [reference_fingerprint(s, length, salt, bits) for s in strings]

    def test_values_are_pinned(self):
        assert fingerprints([b"ACGT"], 4, salt=3, bits=40).tolist() == [0xC7C654E5A9]
        assert fingerprints([b"ACGT"], 4, salt=3, bits=64).tolist() == [0x6A104DC7C654E5A9]
        assert fingerprints([b"ACGT"], 16, salt=3, bits=40).tolist() == [174122539714]
        assert fingerprints([b""], 1, salt=1, bits=8).tolist() == [234]

    def test_salt_padding_and_content_separate_values(self):
        assert fingerprints([b"abc"], 3, salt=1)[0] != fingerprints([b"abc"], 3, salt=2)[0]
        assert len(set(fingerprints([b"abc", b"abd", b"abc\x00", b"ab"], 4).tolist())) == 4
        same_prefix = fingerprints([b"abc", b"abcdef"], 3).tolist()
        assert same_prefix == fingerprints([b"abc"] * 2, 3).tolist()

    def test_thue_morse_block_and_complement_differ(self):
        # the first 2^11 characters of the Thue–Morse word and their
        # complement: modulo 2^64 they collide for every odd base, modulo the
        # two primes they do not
        word = bytes(b"ab"[bin(i).count("1") & 1] for i in range(2048))
        flipped = word.translate(bytes.maketrans(b"ab", b"ba"))
        for base in (31, 257, 0x9E3779B97F4A7C15):
            mod_2_64 = []
            for w in (word, flipped):
                h = 0
                for c in w:
                    h = (h * base + c) & M64
                mod_2_64.append(h)
            assert mod_2_64[0] == mod_2_64[1]
        assert len(set(fingerprints([word, flipped], 2048).tolist())) == 2

    @given(st.lists(_bytes_with_edges, max_size=10), st.sampled_from([0.5, 1.0]),
           st.integers(1, 20), st.data())
    @settings(max_examples=80)
    def test_incremental_equals_from_scratch(self, strings, epsilon, initial_length, data):
        packed = PackedStringArray.from_strings(strings)
        rows = np.arange(len(packed))
        hashes, lo = np.zeros((2, rows.size), np.int64), 0
        for _, length in zip(range(6), candidate_lengths(initial_length, epsilon)):
            hashes = extend_prefix_hashes(hashes, packed, rows, lo, length)
            lo = length
            scratch = [fingerprints([strings[i]], length, 5)[0] for i in rows.tolist()]
            assert mix_fingerprints(hashes, 5, 64).tolist() == scratch
            keep = np.array(data.draw(st.lists(st.booleans(), min_size=rows.size,
                                               max_size=rows.size)), dtype=bool)
            rows, hashes = rows[keep], hashes[:, keep]

    def test_equal_prefixes_hash_alike_whatever_the_companions(self):
        # the rank holding only short strings must not clip the width to its
        # longest string: its copies of a prefix must hash as the long rank's
        shared = [b"", b"A", b"ACGTACGTACGTACGT", b"ACGT\x00"]
        long_rank = shared + [b"ACGTACGTACGTACGT" + b"T" * 300, b"G" * 500]
        short_rank = shared + [b"C", b"ACGTACGTACGTACGTA"]
        for (_, length, fa), (_, _, fb) in zip(round_fingerprints(long_rank),
                                               round_fingerprints(short_rank, rounds=8)):
            for i, s in enumerate(long_rank):
                for j, t in enumerate(short_rank):
                    if s[:length] == t[:length]:
                        assert fa[i] == fb[j], (length, s, t)

    def test_both_engines_compute_the_same_values(self, engine):
        blocks = [dna_reads(200, seed=3), [b"ACGT", b""], thue_morse(50, 300, seed=4)]

        def prog(comm, block):
            return [fps.tolist() for _, _, fps in round_fingerprints(block, rounds=6)]

        results, _ = run_spmd(3, prog, args_per_rank=[(b,) for b in blocks])
        assert results == [prog(None, b) for b in blocks]

    def test_memory_stays_bounded_on_long_strings(self):
        # 1000 strings of 64 KiB: the column chunks, not the strings, bound memory
        n, width = 1000, 1 << 16
        data = np.random.default_rng(0).integers(0, 256, n * width, dtype=np.uint8)
        packed = PackedStringArray(data, np.arange(n + 1, dtype=np.int64) * width)
        rows = np.arange(n)
        tracemalloc.start()
        try:
            hashes = extend_prefix_hashes(np.zeros((2, n), np.int64), packed, rows, 0, width)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        assert hashes[:, :3].tolist() == extend_prefix_hashes(
            np.zeros((2, 3), np.int64), packed, rows[:3], 0, width).tolist()


ORACLE_INPUTS = {
    "dna": lambda: dna_reads(3000, seed=21),
    "duplicates": lambda: duplicate_heavy(3000, 200, 40, seed=22),
    "thue-morse": lambda: thue_morse(3000, 1024, seed=23),
}


@pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
def test_verdicts_against_an_exact_prefix_counter(name):
    """The protocol's verdicts on three ranks, round by round: no false
    *unique* ever, no false duplicate at 40 bits, and at 16 bits false
    duplicates within 2x of the birthday expectation."""
    strings = ORACLE_INPUTS[name]()
    blocks = [strings[r::3] for r in range(3)]
    rounds = max(map(len, strings)).bit_length() + 1

    def prog(comm, block, bits):
        return [
            unique_fingerprint_mask(comm, fps, bits=bits, golomb=True)
            for _, _, fps in round_fingerprints(block, bits=bits, rounds=rounds)
        ]

    expected = observed = 0.0
    for bits in (40, 16):
        results, _ = run_spmd(3, prog, args_per_rank=[(b, bits) for b in blocks])
        for k, length in zip(range(rounds), candidate_lengths()):
            exact = Counter(s[:length] for s in strings)
            exact_unique = np.array([exact[s[:length]] == 1 for b in blocks for s in b])
            verdicts = np.concatenate([per_round[k] for per_round in results])
            assert not (verdicts & ~exact_unique).any()
            if bits == 40:
                assert (verdicts == exact_unique).all()
            else:
                observed += int((exact_unique & ~verdicts).sum())
                expected += exact_unique.sum() * (1 - (1 - 2.0 ** -16) ** (len(exact) - 1))
    assert expected / 2 <= observed <= 2 * expected


class TestGolombCoding:
    def test_parameter_positive(self):
        assert golomb_parameter(1 << 30, 0) == 1
        assert golomb_parameter(1 << 30, 100) >= 1

    def test_roundtrip_simple(self):
        values = [0, 1, 5, 5, 100, 2**20]
        payload, m = encode_sorted(values, universe=2**24)
        assert decode_sorted(payload, m, len(values)) == values

    def test_empty(self):
        payload, m = encode_sorted([], universe=100)
        assert decode_sorted(payload, m, 0) == []

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            encode_sorted([5, 1], universe=100)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            encode_sorted([-1, 2], universe=100)

    def test_rejects_negative_int64_array(self):
        with pytest.raises(ValueError):
            encode_sorted(np.array([-1, 2]), universe=100)

    def test_rejects_values_wider_than_64_bits(self):
        with pytest.raises(ValueError):
            encode_sorted([1, 1 << 64], universe=1 << 64)

    def test_rejects_non_integers(self):
        for bad in ([1.0, 2.0], np.array([1.5]), [-1, 1 << 63], [[1, 2], [3]]):
            with pytest.raises(ValueError):
                encode_sorted(bad, universe=1 << 64)

    def test_coded_set_object(self):
        gs = GolombCodedSet([9, 2, 5], universe=1 << 16)
        assert gs.values.dtype == np.uint64
        assert gs.values.tolist() == [2, 5, 9]
        assert gs.m == golomb_parameter(1 << 16, 3)
        assert len(gs) == 3
        assert list(gs) == [2, 5, 9]

    @pytest.mark.parametrize("name", sorted(GOLDEN_SMALL))
    def test_golden_payloads(self, name):
        values, universe, payload_hex, m = GOLDEN_SMALL[name]
        assert encode_sorted(values, universe) == (bytes.fromhex(payload_hex), m)
        as_array = np.array(values, dtype=np.uint64)
        assert encode_sorted(as_array, universe) == (bytes.fromhex(payload_hex), m)
        gs = GolombCodedSet(values, universe)
        assert gs.values.tolist() == values and gs.m == m
        assert decode_sorted(bytes.fromhex(payload_hex), m, len(values)) == values

    @pytest.mark.parametrize("name", sorted(GOLDEN_SMALL))
    def test_closed_form_size_is_the_golden_payload(self, name):
        values, universe, payload_hex, m = GOLDEN_SMALL[name]
        framing = varint_size(m) + varint_size(len(values))
        gs = GolombCodedSet(values, universe)
        assert coded_sizes(gs.values, [len(values)], [gs.m]) == [len(payload_hex) // 2 + framing]

    @pytest.mark.parametrize("name", sorted(GOLDEN_BULK))
    def test_golden_bulk_payloads(self, name):
        universe, n, seed, digest, size, m = GOLDEN_BULK[name]
        rng = random.Random(seed)
        values = sorted(rng.randrange(universe) for _ in range(n))
        payload, got_m = encode_sorted(values, universe)
        assert (len(payload), got_m) == (size, m)
        assert hashlib.blake2b(payload, digest_size=8).hexdigest() == digest
        assert decode_sorted(payload, m, n) == values

    def test_compression_beats_fixed_width_for_dense_sets(self):
        # 1000 values in a 2^24 universe: ~14 bits each fixed vs ~ log2(gap)+2
        values = sorted(range(0, 1 << 20, 1 << 10))
        gs = GolombCodedSet(values, universe=1 << 24)
        assert coded_sizes(gs.values, [len(values)], [gs.m])[0] < len(values) * 3


class TestMessageTypes:
    def test_fingerprint_block_iteration(self):
        blk = FingerprintBlock([3, 1], bits=32)
        assert list(blk) == [3, 1]
        assert len(blk) == 2

    def test_bitvector_roundtrip(self):
        bv = BitVector([True, False, True])
        assert list(bv) == [True, False, True]
        assert bv[1] is False and len(bv) == 3
        assert bv.packed.tolist() == [0b10100000]
        assert len(BitVector([])) == 0 and list(BitVector([])) == []

    def test_arrays_are_owned_as_uint64_and_packed_bits(self):
        blk = FingerprintBlock([3, (1 << 64) - 1], bits=64)
        assert blk.values.dtype == np.uint64
        assert list(blk) == [3, (1 << 64) - 1]
        assert BitVector(np.array([1, 0, 1])).flags.dtype == np.bool_


def _run_detection(per_pe_fingerprints, golomb=False, bits=32):
    """Helper: run unique_fingerprint_mask on the SPMD engine, verdicts as lists."""
    def prog(comm, fps):
        return unique_fingerprint_mask(comm, fps, bits=bits, golomb=golomb).tolist()

    results, report = run_spmd(
        len(per_pe_fingerprints),
        prog,
        args_per_rank=[(fps,) for fps in per_pe_fingerprints],
    )
    return results, report


def _grid_input(p, bits):
    """Seeded per-PE fingerprints with duplicates within and across PEs, the
    two range ends, and (for p > 1) an empty rank."""
    rng = random.Random(100 * p + bits)
    limit = 1 << bits
    pool = [0, limit - 1] + [rng.randrange(limit) for _ in range(150)]
    per_pe = [[rng.choice(pool) for _ in range(rng.randrange(50, 200))] for _ in range(p)]
    if p > 1:
        per_pe[1] = []
    return per_pe


# bytes of the "duplicate-detection" phase on ``_grid_input``, recorded from
# the per-value list implementation: (p, bits, golomb) -> bytes (self-sends
# are free, so p = 1 moves nothing)
GRID_PHASE_BYTES = {
    (1, 8, False): 0,
    (1, 8, True): 0,
    (1, 40, False): 0,
    (1, 40, True): 0,
    (1, 64, False): 0,
    (1, 64, True): 0,
    (3, 8, False): 230,
    (3, 8, True): 105,
    (3, 40, False): 737,
    (3, 40, True): 661,
    (3, 64, False): 1484,
    (3, 64, True): 1395,
    (4, 8, False): 402,
    (4, 8, True): 191,
    (4, 40, False): 1873,
    (4, 40, True): 1658,
    (4, 64, False): 2141,
    (4, 64, True): 2042,
}


class TestFindUniqueFingerprints:
    @pytest.mark.parametrize("golomb", [False, True])
    def test_basic_detection(self, golomb):
        # value 7 appears on PEs 0 and 2; 1, 2, 3 are unique
        per_pe = [[7, 1], [2], [7, 3]]
        results, _ = _run_detection(per_pe, golomb=golomb)
        assert results[0] == [False, True]
        assert results[1] == [True]
        assert results[2] == [False, True]

    @pytest.mark.parametrize("golomb", [False, True])
    @pytest.mark.parametrize("bits", [8, 40, 64])
    @pytest.mark.parametrize("p", [1, 3, 4])
    def test_matches_counter_oracle(self, engine, p, bits, golomb):
        per_pe = _grid_input(p, bits)
        results, report = _run_detection(per_pe, golomb=golomb, bits=bits)
        counts = Counter(v for fps in per_pe for v in fps)
        assert results == [[counts[v] == 1 for v in fps] for fps in per_pe]
        moved = report.phase_bytes.get("duplicate-detection", 0)
        assert moved == GRID_PHASE_BYTES[p, bits, golomb]

    @pytest.mark.parametrize("golomb", [False, True])
    def test_all_duplicates_and_empty_ranks(self, engine, golomb):
        per_pe = [[5, 9, 5], [], [9, 5], []]
        results, _ = _run_detection(per_pe, golomb=golomb, bits=8)
        assert results == [[False] * 3, [], [False] * 2, []]

    def test_uint64_array_input(self):
        per_pe = [np.array([7, 1 << 63], dtype=np.uint64), np.array([7], dtype=np.uint64)]
        results, _ = _run_detection(per_pe, golomb=True, bits=64)
        assert results == [[False, True], [False]]

    def test_mask_form_is_the_same_verdicts_as_a_bool_array(self):
        def prog(comm, fps):
            return unique_fingerprint_mask(comm, fps, bits=8, golomb=True)

        results, _ = run_spmd(2, prog, args_per_rank=[([5, 5, 8],), ([],)])
        assert [r.dtype for r in results] == [np.bool_, np.bool_]
        assert [r.tolist() for r in results] == [[False, False, True], []]

    def test_duplicates_within_one_pe(self):
        per_pe = [[5, 5, 8], [9]]
        results, _ = _run_detection(per_pe)
        assert results[0] == [False, False, True]
        assert results[1] == [True]

    def test_all_unique(self):
        per_pe = [[1, 2], [3, 4], [5]]
        results, _ = _run_detection(per_pe)
        assert all(all(r) for r in results)

    def test_all_duplicated(self):
        per_pe = [[42], [42], [42]]
        results, _ = _run_detection(per_pe)
        assert all(r == [False] for r in results)

    def test_empty_pes_are_fine(self):
        per_pe = [[], [11], []]
        results, _ = _run_detection(per_pe)
        assert results == [[], [True], []]

    def test_never_declares_true_duplicate_unique(self):
        # safety property: identical values can never come back "unique"
        rng = random.Random(3)
        per_pe = [[rng.randrange(100) for _ in range(50)] for _ in range(4)]
        results, _ = _run_detection(per_pe)
        counts = Counter(v for fps in per_pe for v in fps)
        for fps, verdicts in zip(per_pe, results):
            for v, unique in zip(fps, verdicts):
                if counts[v] > 1:
                    assert not unique
                else:
                    assert unique

    def test_out_of_range_fingerprint_rejected(self):
        from repro.mpi import SpmdError

        with pytest.raises(SpmdError) as excinfo:
            _run_detection([[1, 2**40, 2**41], [1]], bits=32)
        assert "fingerprint 1099511627776 does not fit in 32 bits" in str(
            excinfo.value.__cause__
        )
        with pytest.raises(SpmdError) as excinfo:
            _run_detection([[4, -3], [1]], bits=64)
        assert "fingerprint -3 does not fit in 64 bits" in str(excinfo.value.__cause__)
        # arrays are validated like lists, whatever numpy's casting rules are
        with pytest.raises(SpmdError) as excinfo:
            _run_detection([np.array([4, -3]), [1]], bits=64)
        assert "fingerprint -3 does not fit in 64 bits" in str(excinfo.value.__cause__)
        with pytest.raises(SpmdError) as excinfo:
            _run_detection([np.array([4, 300], dtype=np.uint64), [1]], bits=8)
        assert "fingerprint 300 does not fit in 8 bits" in str(excinfo.value.__cause__)

    def test_non_integer_fingerprints_are_a_value_error(self):
        from repro.mpi import SpmdError

        for bad, shown in (([1, 2.5], "2.5"), ([[1, 2], [3]], "[1, 2]")):
            with pytest.raises(SpmdError) as excinfo:
                _run_detection([bad, [1]], bits=40)
            assert isinstance(excinfo.value.__cause__, ValueError)
            assert f"fingerprint {shown} does not fit in 40 bits" in str(excinfo.value.__cause__)

    def test_golomb_reduces_traffic(self):
        rng = random.Random(1)
        per_pe = [[rng.randrange(1 << 32) for _ in range(400)] for _ in range(4)]
        _, plain_report = _run_detection(per_pe, golomb=False, bits=32)
        _, golomb_report = _run_detection(per_pe, golomb=True, bits=32)
        assert golomb_report.total_bytes_sent < plain_report.total_bytes_sent

    def test_verdicts_come_back_in_input_order(self):
        # fingerprints deliberately unsorted per destination
        per_pe = [[90, 10, 50, 10], [70]]
        results, _ = _run_detection(per_pe)
        assert results[0] == [True, False, True, False]
