"""Unit tests for repro.strings.stringset."""

import numpy as np
import pytest

from repro.dist.api import distribute_strings
from repro.strings.packed import PackedStringArray, concat_runs, string_lengths
from repro.strings.stringset import StringSet, validate_strings


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



class TestStringSetBasics:
    def test_len_iter_getitem(self):
        ss = StringSet([b"b", b"a", b"c"])
        assert len(ss) == 3
        assert list(ss) == [b"b", b"a", b"c"]
        assert ss[1] == b"a"

    def test_slice_returns_stringset(self):
        ss = StringSet([b"b", b"a", b"c"])
        sub = ss[1:]
        assert isinstance(sub, StringSet)
        assert list(sub) == [b"a", b"c"]

    def test_equality_with_list_and_stringset(self):
        assert StringSet([b"a"]) == [b"a"]
        assert StringSet([b"a"]) == StringSet([b"a"])
        assert StringSet([b"a"]) != StringSet([b"b"])

    def test_str_inputs_are_encoded(self):
        ss = StringSet(["abc"])
        assert ss[0] == b"abc"


class TestStringSetStatistics:
    def test_table1_quantities(self):
        ss = StringSet([b"alpha", b"beta", b"gamma!"])
        assert len(ss) == 3
        assert ss.num_chars == 5 + 4 + 6

    def test_empty_set(self):
        ss = StringSet([])
        assert len(ss) == 0
        assert ss.num_chars == 0

    def test_packed_input_is_adopted_without_a_copy(self):
        arr = PackedStringArray.from_strings([b"ab", b"", b"cde"])
        ss = StringSet(arr)
        assert ss.strings is arr
        assert ss.num_chars == 5
        assert ss[1:].strings.buffer is arr.buffer  # slices are views
        assert list(ss[1:]) == [b"", b"cde"]

    def test_statistics_are_cached(self):
        ss = StringSet([b"abc", b"b"])
        assert ss.strings.lengths is ss.strings.lengths
        assert ss.sorted_packed() is ss.sorted_packed()
        assert ss.num_chars == 4


class TestStringSetOperations:
    def test_sorted_packed_keeps_the_set_order(self):
        ss = StringSet([b"b", b"a"])
        assert list(ss.sorted_packed()) == [b"a", b"b"]
        assert list(ss) == [b"b", b"a"]  # the set itself keeps its order

    def test_is_sorted_with_duplicates(self):
        # ties and empty strings keep their multiplicity in the sorted copy
        for strings in ([b"b", b"a", b"a"], [b"a", b"", b""], [b"ab", b"a", b"ab"]):
            assert list(StringSet(strings).sorted_packed()) == sorted(strings)

    def test_split_blocks_covers_everything(self):
        ss = StringSet([bytes([c]) for c in range(97, 97 + 10)])
        parts = distribute_strings(ss, 3)
        assert [len(p) for p in parts] == [4, 3, 3]
        assert [s for p in parts for s in p] == list(ss)
        assert all(p.buffer is ss.strings.buffer for p in parts)  # views

    def test_split_by_chars_balances_characters(self):
        ss = StringSet([b"x" * 10] * 4 + [b"y"] * 4)
        parts = distribute_strings(ss, 2, by="chars")
        sizes = [p.num_chars for p in parts]
        assert sum(sizes) == ss.num_chars
        # the heavy strings should not all end up on one side
        assert max(sizes) <= ss.num_chars * 0.75
        assert [s for p in parts for s in p] == list(ss)

    def test_split_invalid_parts(self):
        ss = StringSet([b"a"])
        with pytest.raises(ValueError):
            distribute_strings(ss, 0)
        with pytest.raises(ValueError):
            distribute_strings(ss, -1, by="chars")
        with pytest.raises(ValueError):
            distribute_strings(ss, 2, by="lines")

    def test_concat(self):
        a = StringSet([b"a"])
        b = StringSet([b"b", b""])
        cat, bounds = concat_runs([a.strings, b.strings])
        assert list(StringSet(cat)) == [b"a", b"b", b""]
        assert bounds.tolist() == [0, 1, 3]
