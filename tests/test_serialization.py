"""Tests for wire-size accounting of simulated messages."""

import numpy as np
import pytest

from repro.dist.exchange import LcpCompressedBlock, StringBlock
from repro.dist.duplicates import BitVector, FingerprintBlock
from repro.dist.golomb import GolombCodedSet, coded_sizes
from repro.mpi.serialization import varint_size, wire_size

from oracles.golomb import decode_sorted, encode_sorted


class TestVarint:
    @pytest.mark.parametrize(
        "value, size",
        [(0, 1), (1, 1), (127, 1), (128, 2), (16383, 2), (16384, 3), (2**31, 5)],
    )
    def test_sizes(self, value, size):
        assert varint_size(value) == size

    def test_negative_values_supported(self):
        assert varint_size(-1) >= 1
        assert varint_size(-1000) >= 2


class TestWireSize:
    def test_bytes_include_length_header(self):
        assert wire_size(b"abcd") == 4 + 1
        assert wire_size(b"") == 1

    def test_str_counts_utf8(self):
        assert wire_size("é") == 2 + 1

    def test_ints_are_varints(self):
        assert wire_size(5) == 1
        assert wire_size(300) == 2

    def test_none_bool_float(self):
        assert wire_size(None) == 1
        assert wire_size(True) == 1
        assert wire_size(3.14) == 8

    def test_lists_and_tuples_sum_elements(self):
        assert wire_size([b"ab", b"c"]) == 1 + (2 + 1) + (1 + 1)
        assert wire_size((1, 2)) == 1 + 1 + 1

    def test_dicts(self):
        assert wire_size({1: b"a"}) == 1 + 1 + 2

    def test_numpy_arrays(self):
        arr = np.zeros(10, dtype=np.int32)
        assert wire_size(arr) == 40
        assert wire_size(np.int64(7)) == 1

    def test_unknown_type_raises(self):
        class Foo:
            pass

        with pytest.raises(TypeError):
            wire_size(Foo())

    def test_wire_sized_hook(self):
        class Custom:
            def wire_bytes(self):
                return 42

        assert wire_size(Custom()) == 42


class TestStringBlock:
    def test_wire_size_counts_strings_and_headers(self):
        blk = StringBlock([b"abc", b""])
        assert blk.wire_bytes() == 1 + (1 + 3) + (1 + 0)

    def test_lcps_add_varints(self):
        with_lcps = StringBlock([b"abc", b"abd"], [0, 2])
        without = StringBlock([b"abc", b"abd"])
        assert with_lcps.wire_bytes() == without.wire_bytes() + 2

    def test_decode_recomputes_lcps(self):
        blk = StringBlock([b"abc", b"abd"])
        strings, lcps = blk.decode_run()
        assert strings.to_list() == [b"abc", b"abd"]
        assert lcps.tolist() == [0, 2]

    def test_decode_keeps_shipped_lcps(self):
        blk = StringBlock([b"abc", b"abd"], [0, 2])
        strings, lcps = blk.decode_run()
        assert strings.to_list() == [b"abc", b"abd"]
        assert lcps.dtype == np.int64 and lcps.tolist() == [0, 2]


class TestLcpCompressedBlock:
    def test_roundtrip(self):
        strings = [b"algae", b"alpha", b"alps", b"alps"]
        lcps = [0, 2, 3, 4]
        blk = LcpCompressedBlock.encode(strings, lcps)
        decoded, dec_lcps = blk.decode_run()
        assert decoded.to_list() == strings
        assert dec_lcps.tolist() == [0, 2, 3, 4]

    def test_compression_reduces_wire_size(self):
        strings = [b"x" * 100 + bytes([c]) for c in range(97, 105)]
        strings.sort()
        lcps = [0] + [100] * 7
        compressed = LcpCompressedBlock.encode(strings, lcps)
        plain = StringBlock(strings)
        assert compressed.wire_bytes() < plain.wire_bytes() / 4

    def test_chars_sent_counts_suffixes_only(self):
        strings = [b"aaa", b"aab"]
        blk = LcpCompressedBlock.encode(strings, [0, 2])
        assert blk.chars_sent == 3 + 1

    def test_empty_block(self):
        blk = LcpCompressedBlock.encode([], [])
        strings, lcps = blk.decode_run()
        assert len(strings) == 0 and lcps.tolist() == []
        assert blk.wire_bytes() == 1

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            LcpCompressedBlock.encode([b"a"], [0, 0])


class TestFingerprintAndBitMessages:
    def test_fingerprint_block_fixed_width(self):
        blk = FingerprintBlock([1, 2, 3], bits=64)
        assert blk.wire_bytes() == 1 + 3 * 8
        blk32 = FingerprintBlock([1, 2, 3], bits=32)
        assert blk32.wire_bytes() == 1 + 3 * 4

    def test_bitvector_packs_eight_per_byte(self):
        bv = BitVector([True] * 8)
        assert bv.wire_bytes() == 1 + 1
        bv9 = BitVector([False] * 9)
        assert bv9.wire_bytes() == 1 + 2
        assert list(bv9) == [False] * 9
        assert bv9[3] is False

    def test_golomb_set_wire_size_matches_payload(self):
        values = [3, 17, 90, 1000]
        gs = GolombCodedSet(values, universe=2**20)
        payload, m = encode_sorted(values, universe=2**20)
        size = len(payload) + varint_size(m) + varint_size(len(values))
        assert coded_sizes(gs.values, [len(values)], [gs.m]) == [size]
        assert decode_sorted(payload, m, len(values)) == gs.values.tolist()
