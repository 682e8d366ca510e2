"""Input validation and distribution: ``validate_strings``, the packed
length helpers and ``distribute_strings``."""

import numpy as np
import pytest

from repro.dist.api import distribute_strings
from repro.strings.packed import PackedStringArray, concat_runs, string_lengths
from repro.strings.packed import validate_strings


class TestValidateStrings:
    def test_bytes_pass_through(self):
        assert validate_strings([b"ab", b"c"]) == [b"ab", b"c"]

    def test_str_encoded_utf8(self):
        assert validate_strings(["ab", "ü"]) == [b"ab", "ü".encode("utf-8")]

    def test_bytearray_converted(self):
        assert validate_strings([bytearray(b"xy")]) == [b"xy"]

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            validate_strings([123])

    def test_empty_iterable(self):
        assert validate_strings([]) == []


class TestModuleHelpers:
    """``N`` and ``l_hat`` of a plain list of strings."""

    def test_concat_size(self):
        strings = [b"ab", b"", b"cde"]
        assert int(string_lengths(strings).sum()) == 5
        assert int(string_lengths(PackedStringArray.from_strings(strings)).sum()) == 5

    def test_concat_size_empty(self):
        lengths = string_lengths([])
        assert lengths.dtype == np.int64 and lengths.size == 0
        assert PackedStringArray.from_strings([]).num_chars == 0

    def test_max_length(self):
        assert PackedStringArray.from_strings([b"ab", b"abcd", b""]).max_len == 4

    def test_max_length_empty(self):
        assert PackedStringArray.from_strings([]).max_len == 0
        assert PackedStringArray.from_strings([b""]).max_len == 0


class TestDistributeStrings:
    def test_split_blocks_covers_everything(self):
        arr = PackedStringArray.from_strings([bytes([c]) for c in range(97, 97 + 10)])
        parts = distribute_strings(arr, 3)
        assert [len(p) for p in parts] == [4, 3, 3]
        assert [s for p in parts for s in p] == list(arr)
        assert all(p.buffer is arr.buffer for p in parts)  # views

    def test_split_by_chars_balances_characters(self):
        arr = PackedStringArray.from_strings([b"x" * 10] * 4 + [b"y"] * 4)
        parts = distribute_strings(arr, 2, by="chars")
        sizes = [p.num_chars for p in parts]
        assert sum(sizes) == arr.num_chars
        # the heavy strings should not all end up on one side
        assert max(sizes) <= arr.num_chars * 0.75
        assert [s for p in parts for s in p] == list(arr)

    def test_split_invalid_parts(self):
        strings = [b"a"]
        with pytest.raises(ValueError):
            distribute_strings(strings, 0)
        with pytest.raises(ValueError):
            distribute_strings(strings, -1, by="chars")
        with pytest.raises(ValueError):
            distribute_strings(strings, 2, by="lines")

    def test_concat(self):
        a = PackedStringArray.from_strings([b"a"])
        b = PackedStringArray.from_strings([b"b", b""])
        cat, bounds = concat_runs([a, b])
        assert list(cat) == [b"a", b"b", b""]
        assert bounds.tolist() == [0, 1, 3]
