"""Property tests pinning the packed (vectorized) kernels to the scalar code.

Every vectorized kernel of :mod:`repro.strings.packed` must be bit-exact
with its scalar counterpart — the packed hot path replaces the original
implementation wholesale, so any divergence silently corrupts results or
wire accounting.  Hypothesis drives adversarial inputs: empty strings,
exact duplicates, one-byte alphabets, and strings sharing prefixes longer
than 255 characters (so LCP values need multi-byte varints).
"""

import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dist.exchange import LcpCompressedBlock, StringBlock
from repro.dist.partition import split_into_buckets
from repro.mpi.serialization import (
    block_checksum,
    varint_size,
    varint_sizes,
    varint_total,
    wire_size,
)
from repro.sequential import CharStats
from repro.sequential.vector_sort import vector_sort_with_lcp
from repro.strings.lcp import lcp_array
from repro.strings.packed import (
    PackedStringArray,
    clip_lcps,
    concat_runs,
    fixed_width_keys,
    packed_bucket_boundaries,
    packed_lcp_array,
    packed_sort,
    sort_with_order,
    take,
    truncate,
)

from oracles.front_coding import _front_decode_scalar, front_code, front_decode
from oracles.lcp import lcp
from oracles.partition import bucket_boundaries as bisect_boundaries

#: pickle framing of a packed array beyond its payload: two numpy headers
_PICKLE_OVERHEAD = 512

# ---------------------------------------------------------------------------
# input strategies
# ---------------------------------------------------------------------------

# small alphabets maximise duplicates and long shared prefixes
_alphabets = st.sampled_from([b"a", b"ab", b"abc", bytes(range(1, 256))])


@st.composite
def string_lists(draw, min_size=0, max_size=40):
    alphabet = draw(_alphabets)
    base = draw(
        st.lists(
            st.binary(min_size=0, max_size=24).map(
                lambda b: bytes(alphabet[x % len(alphabet)] for x in b)
            ),
            min_size=min_size,
            max_size=max_size,
        )
    )
    if draw(st.booleans()):
        # adversarial tail: empties, duplicates, and a >255-char common prefix
        long = bytes(alphabet[0:1]) * 300
        base += [b"", b"", long, long + b"x", long]
    return base


def scalar_lcp_array(strings):
    """Reference implementation: the original per-pair scalar loop."""
    out = [0] * len(strings)
    for i in range(1, len(strings)):
        out[i] = lcp(strings[i - 1], strings[i])
    return out


def scalar_front_code(strings, lcps):
    """Reference encoder: the original per-string ``(lcp, suffix)`` loop."""
    entries = []
    prev_len = 0
    for i, (s, h) in enumerate(zip(strings, lcps)):
        h = 0 if i == 0 else min(h, len(s), prev_len)
        entries.append((h, s[h:]))
        prev_len = len(s)
    return entries


def scalar_wire_bytes(strings, lcps=None):
    """Reference ``StringBlock`` accounting: count, (length, payload), LCPs."""
    total = varint_size(len(strings))
    total += sum(varint_size(len(s)) + len(s) for s in strings)
    return total + sum(varint_size(h) for h in lcps or ())


def scalar_front_coded_wire_bytes(entries):
    """Reference ``LcpCompressedBlock`` accounting: count, (lcp, length, suffix)."""
    return varint_size(len(entries)) + sum(
        varint_size(h) + varint_size(len(suffix)) + len(suffix)
        for h, suffix in entries
    )


# ---------------------------------------------------------------------------
# round trip and container protocol
# ---------------------------------------------------------------------------

class TestRoundTrip:
    @given(string_lists())
    @settings(max_examples=120, deadline=None)
    def test_pack_unpack_identity(self, xs):
        arr = PackedStringArray.from_strings(xs)
        assert arr.to_list() == xs
        assert list(arr) == xs
        assert [arr[i] for i in range(len(arr))] == xs
        assert len(arr) == len(xs)
        assert arr.num_chars == sum(len(s) for s in xs)
        assert arr.max_len == max((len(s) for s in xs), default=0)
        assert arr.lengths.tolist() == [len(s) for s in xs]

    @given(string_lists(min_size=2), st.data())
    @settings(max_examples=60, deadline=None)
    def test_views_are_zero_copy_windows(self, xs, data):
        arr = PackedStringArray.from_strings(xs)
        lo = data.draw(st.integers(0, len(xs)))
        hi = data.draw(st.integers(lo, len(xs)))
        view = arr[lo:hi]
        assert view.buffer is arr.buffer  # shared character data
        assert view.to_list() == list(view) == [view[i] for i in range(len(view))] == xs[lo:hi]
        assert packed_lcp_array(view).tolist() == scalar_lcp_array(xs[lo:hi])

    @given(string_lists(min_size=2), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pickled_view_carries_only_its_window(self, xs, data):
        # ``head``/``tail`` strings pad the shared buffer around every view
        arr = PackedStringArray.from_strings([b"head" * 256] + xs + [b"tail" * 256])
        lo = data.draw(st.integers(1, len(xs) + 1))
        view = arr[lo : data.draw(st.integers(lo, len(xs) + 1))]
        blob = pickle.dumps(view, protocol=5)
        back = pickle.loads(blob)
        assert back.to_list() == view.to_list()
        assert block_checksum(back) == block_checksum(view)
        assert len(blob) <= view.num_chars + 8 * (len(view) + 1) + _PICKLE_OVERHEAD
        assert len(blob) < arr.num_chars  # not the shared buffer

    @given(string_lists())
    @settings(max_examples=60, deadline=None)
    def test_sort_matches_builtin(self, xs):
        arr = PackedStringArray.from_strings(xs)
        assert packed_sort(arr).to_list() == sorted(xs)
        order = sort_with_order(arr)[1]
        assert [xs[i] for i in order] == sorted(xs)

    @given(string_lists(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncate_matches_slicing(self, xs, data):
        lims = [data.draw(st.integers(0, 30)) for _ in xs]
        arr = PackedStringArray.from_strings(xs)
        assert truncate(arr, lims).to_list() == [s[:l] for s, l in zip(xs, lims)]


# ---------------------------------------------------------------------------
# vectorized vs scalar LCP
# ---------------------------------------------------------------------------

class TestLcpEquivalence:
    @given(string_lists())
    @settings(max_examples=120, deadline=None)
    def test_packed_lcp_equals_scalar(self, xs):
        arr = PackedStringArray.from_strings(xs)
        assert packed_lcp_array(arr).tolist() == scalar_lcp_array(xs)

    @given(string_lists())
    @settings(max_examples=40, deadline=None)
    def test_big_endian_fallback_equivalent(self, xs):
        import repro.strings.packed as packed_mod

        arr = PackedStringArray.from_strings(xs)
        fast = packed_lcp_array(arr)
        original = packed_mod._LITTLE_ENDIAN
        packed_mod._LITTLE_ENDIAN = False
        try:
            slow = packed_lcp_array(arr)
        finally:
            packed_mod._LITTLE_ENDIAN = original
        assert fast.tolist() == slow.tolist() == scalar_lcp_array(xs)

    @given(string_lists())
    @settings(max_examples=60, deadline=None)
    def test_lcp_array_dispatch_is_equivalent(self, xs):
        fast = lcp_array(xs * 3)  # ×3 pushes past the dispatch threshold
        assert fast == scalar_lcp_array(xs * 3)


# ---------------------------------------------------------------------------
# front coding: encode / decode / wire accounting
# ---------------------------------------------------------------------------

class TestFrontCoding:
    @given(string_lists())
    @settings(max_examples=120, deadline=None)
    def test_encode_matches_scalar_entries(self, xs):
        srt = sorted(xs)
        h = scalar_lcp_array(srt)
        hc, suffixes = front_code(PackedStringArray.from_strings(srt), h)
        assert [(int(a), b) for a, b in zip(hc, suffixes)] == scalar_front_code(srt, h)

    @given(string_lists())
    @settings(max_examples=120, deadline=None)
    def test_decode_round_trips(self, xs):
        srt = sorted(xs)
        h = scalar_lcp_array(srt)
        hc, suffixes = front_code(PackedStringArray.from_strings(srt), h)
        assert front_decode(hc, suffixes).to_list() == srt

    @given(string_lists())
    @settings(max_examples=80, deadline=None)
    def test_block_wire_bytes_identical(self, xs):
        srt = sorted(xs)
        h = scalar_lcp_array(srt)
        arr = PackedStringArray.from_strings(srt)
        assert (
            LcpCompressedBlock.encode(arr, h).wire_bytes()
            == LcpCompressedBlock.encode(srt, h).wire_bytes()
            == scalar_front_coded_wire_bytes(scalar_front_code(srt, h))
        )
        assert StringBlock(arr).wire_bytes() == scalar_wire_bytes(srt)
        assert StringBlock(srt, h).wire_bytes() == scalar_wire_bytes(srt, h)
        assert wire_size(arr) == scalar_wire_bytes(srt)

    @given(string_lists())
    @settings(max_examples=60, deadline=None)
    def test_block_decode_identical(self, xs):
        srt = sorted(xs)
        h = scalar_lcp_array(srt)
        arr = PackedStringArray.from_strings(srt)
        clipped = [hi for hi, _ in scalar_front_code(srt, h)]
        for strings in (arr, srt):
            run, lcps = LcpCompressedBlock.encode(strings, h).decode_run()
            assert run.to_list() == srt and lcps.tolist() == clipped
            run, lcps = StringBlock(strings).decode_run()
            assert run.to_list() == srt and lcps is None
            run, lcps = StringBlock(strings, h).decode_run()
            assert run.to_list() == srt and lcps.tolist() == h

    def test_corrupt_packed_block_detected(self):
        suffixes = PackedStringArray.from_strings([b"ab", b"c"])
        with pytest.raises(ValueError):
            front_decode(np.array([0, 5]), suffixes)
        with pytest.raises(ValueError):
            front_decode(np.array([1, 0]), suffixes)


class TestClipLcps:
    """``clip_lcps`` turns a sorted run's LCPs into its truncation's LCPs."""

    @staticmethod
    def _check(srt, lims):
        arr = PackedStringArray.from_strings(srt)
        prefixes = truncate(arr, lims)
        clipped = clip_lcps(prefixes, packed_lcp_array(arr))
        assert clipped.dtype == np.int64
        assert clipped.tolist() == packed_lcp_array(prefixes).tolist()
        assert clipped.tolist() == scalar_lcp_array([s[:n] for s, n in zip(srt, lims)])

    @given(string_lists(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_truncated_run_lcps(self, xs, data):
        srt = sorted(xs)
        self._check(srt, [data.draw(st.integers(0, len(s))) for s in srt])

    @given(st.binary(max_size=20), st.data())
    @settings(max_examples=30, deadline=None)
    def test_single_string(self, s, data):
        self._check([s], [data.draw(st.integers(0, len(s)))])

    def test_empty_block_and_full_lengths(self):
        self._check([], [])
        srt = sorted([b"ab", b"abc", b"abc", b"b", b""])
        self._check(srt, [len(s) for s in srt])

    def test_first_entry_zeroed_and_input_untouched(self):
        arr = PackedStringArray.from_strings([b"ab", b"abc"])
        lcps = np.array([7, 5], dtype=np.int64)
        assert clip_lcps(arr, lcps).tolist() == [0, 2]
        assert lcps.tolist() == [7, 5]
        with pytest.raises(ValueError):
            clip_lcps(arr, [0])


class TestConcatRuns:
    """``concat_runs`` lays runs back to back and says where each one is."""

    @given(st.lists(string_lists(), min_size=1, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_runs_back_to_back(self, parts):
        # offset-window views: every run borrows a buffer with bytes around it
        runs = [PackedStringArray.from_strings([b"head"] + xs + [b"tail"])[1:-1] for xs in parts]
        cat, bounds = concat_runs(runs)
        assert cat.to_list() == [s for xs in parts for s in xs]
        assert bounds.dtype == np.int64
        assert bounds.tolist() == np.cumsum([0] + [len(xs) for xs in parts]).tolist()
        assert cat.offsets[0] == 0 and cat.buffer.size == cat.num_chars
        for r, xs in enumerate(parts):
            assert cat[int(bounds[r]) : int(bounds[r + 1])].to_list() == xs


class TestPackedLcpBlock:
    """A packed ``LcpCompressedBlock`` builds no suffix bytes, yet accounts
    exactly for the oracle's ``front_code`` form and hands the receiver what
    the oracle's ``front_decode`` reconstructs."""

    @given(string_lists())
    @settings(max_examples=80, deadline=None)
    def test_accounting_equals_front_code(self, xs):
        srt = sorted(xs)
        h = scalar_lcp_array(srt)
        arr = PackedStringArray.from_strings(srt)
        hc, suffixes = front_code(arr, h)
        blk = LcpCompressedBlock.encode(arr, h)
        assert len(blk) == len(suffixes)
        assert blk.chars_sent == suffixes.num_chars
        assert blk.wire_bytes() == (
            varint_size(len(suffixes))
            + varint_total(hc)
            + varint_total(suffixes.lengths)
            + suffixes.num_chars
        )
        run, lcps = blk.decode_run()
        assert run is arr and lcps.tolist() == hc.tolist()
        assert front_decode(hc, suffixes).to_list() == run.to_list()


class TestFrontDecodeVectorizedOracle:
    """The PSV-chain ``front_decode`` ≡ the scalar per-string loop.

    The vectorized decoder reconstructs each string's borrowed prefix
    through its previous-smaller-value chain over the LCP array; the scalar
    loop (``_front_decode_scalar``, kept exactly as it was) is the oracle.
    Every property feeds *sorted* inputs — front coding is only defined on
    sorted runs — but stresses the chain's edge shapes: empty strings, zero
    LCPs, all-equal runs (chain depth 1), staircase prefixes (maximal chain
    depth), single-string arrays, and non-ASCII / NUL-bearing bytes.
    """

    @staticmethod
    def _roundtrip(srt):
        h = np.asarray(scalar_lcp_array(srt), dtype=np.int64)
        hc, suffixes = front_code(PackedStringArray.from_strings(srt), h.tolist())
        got = front_decode(hc, suffixes)
        want = _front_decode_scalar(np.asarray(hc, dtype=np.int64), suffixes)
        assert got.to_list() == want.to_list() == srt

    @given(string_lists())
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_oracle(self, xs):
        self._roundtrip(sorted(xs))

    @given(st.lists(st.binary(min_size=0, max_size=16), max_size=30))
    @settings(max_examples=120, deadline=None)
    def test_arbitrary_binary_strings(self, xs):
        # full byte alphabet: non-ASCII values and embedded NULs
        self._roundtrip(sorted(xs))

    @given(st.binary(min_size=0, max_size=12), st.integers(1, 50))
    @settings(max_examples=80, deadline=None)
    def test_all_equal_run(self, s, n):
        # constant run: every LCP equals len(s); chain depth is exactly 1
        self._roundtrip([s] * n)

    @given(st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_staircase_prefixes(self, n):
        # a, aa, aaa, ...: strictly increasing LCPs, maximal chain depth
        self._roundtrip([b"a" * i for i in range(1, n + 1)])

    @given(st.binary(min_size=0, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_single_string(self, s):
        self._roundtrip([s])

    @given(st.lists(st.binary(min_size=0, max_size=10), min_size=1, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_zero_lcp_runs(self, xs):
        # distinct leading bytes force every LCP to 0: pure suffix copy
        srt = sorted(xs)
        distinct = [bytes([i]) + s for i, s in enumerate(srt)]
        self._roundtrip(distinct)

    def test_empty_input(self):
        self._roundtrip([])


# ---------------------------------------------------------------------------
# varint accounting
# ---------------------------------------------------------------------------

class TestVarintVectorized:
    @given(st.lists(st.integers(-(2**40), 2**60), max_size=50))
    @settings(max_examples=120, deadline=None)
    def test_varint_sizes_match_scalar(self, values):
        assert varint_sizes(values).tolist() == [varint_size(v) for v in values]
        assert varint_total(values) == sum(varint_size(v) for v in values)

    def test_boundaries(self):
        edges = [0, 1, 127, 128, 2**14 - 1, 2**14, 2**21, 2**63 - 1, -1, -2**62]
        assert varint_sizes(edges).tolist() == [varint_size(v) for v in edges]


# ---------------------------------------------------------------------------
# bucket partition
# ---------------------------------------------------------------------------

class TestPackedPartition:
    @given(string_lists(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_boundaries_match_bisect(self, xs, data):
        srt = sorted(xs)
        k = data.draw(st.integers(0, 4))
        pool = srt + [b"", b"m", b"zzz"]
        splitters = sorted(data.draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k)))
        arr = PackedStringArray.from_strings(srt)
        assert packed_bucket_boundaries(arr, splitters) == bisect_boundaries(srt, splitters)

    def test_nul_bytes_fall_back_correctly(self):
        srt = sorted([b"\x00", b"\x00a", b"a\x00b", b"a", b"ab", b"b"])
        splitters = [b"\x00a", b"a\x00b"]
        arr = PackedStringArray.from_strings(srt)
        assert packed_bucket_boundaries(arr, splitters) == bisect_boundaries(srt, splitters)

    def test_stringset_caches_sorted_packed(self):
        from repro.strings.lcp import merge_lcp_statistics
        from repro.strings.stringset import StringSet

        ss = StringSet([b"banana", b"band", b"apple", b"apple", b"", b"cherry"])
        first = ss.sorted_packed()
        assert first.to_list() == sorted(ss.strings)
        assert ss.sorted_packed() is first  # cached, no re-sort
        reference = merge_lcp_statistics(list(ss.strings))
        assert merge_lcp_statistics(ss) == reference
        assert merge_lcp_statistics(ss) == reference  # served from the cache

    @given(string_lists(min_size=1), st.data())
    @settings(max_examples=50, deadline=None)
    def test_split_into_buckets_packed_equals_list(self, xs, data):
        srt = sorted(xs)
        h = scalar_lcp_array(srt)
        k = data.draw(st.integers(0, 3))
        splitters = sorted(data.draw(st.lists(st.sampled_from(srt), min_size=k, max_size=k)))
        list_buckets = split_into_buckets(srt, h, splitters)
        packed_buckets = split_into_buckets(
            PackedStringArray.from_strings(srt), np.asarray(h), splitters
        )
        bounds = bisect_boundaries(srt, splitters)
        assert len(list_buckets) == len(packed_buckets) == len(bounds) - 1
        for (ls, lh), (ps, ph), lo, hi in zip(list_buckets, packed_buckets, bounds, bounds[1:]):
            assert ls.to_list() == ps.to_list() == srt[lo:hi]
            expected = ([0] + h[lo + 1 : hi]) if hi > lo else []
            assert lh.tolist() == ph.tolist() == expected


# ---------------------------------------------------------------------------
# the vectorized local sort and its row gather
# ---------------------------------------------------------------------------

@st.composite
def sort_blocks(draw):
    """A block as the local sort meets it, always a window into a larger
    array: ragged (with the >255-char tail), uniform-length, all-empty,
    single-string, with trailing NULs, sharing a prefix of 8 bytes or more
    (at least 1024 strings, some ending on a word boundary), with strings
    over 4096 bytes, NUL-bearing with strings over 256 bytes, or
    duplicate-heavy."""
    shape = draw(
        st.sampled_from(
            ["ragged", "uniform", "empty", "single", "nul", "shared", "long", "nul_long", "dups"]
        )
    )
    xs = draw(string_lists(min_size=1))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if shape == "uniform":
        width = draw(st.integers(1, 9))
        xs = [s.ljust(width, b"a")[:width] for s in xs]
    elif shape == "empty":
        xs = [b""] * len(xs)
    elif shape == "single":
        xs = xs[:1]
    elif shape == "nul":
        xs = [s + b"\x00" * (len(s) % 3) for s in xs] + [b"\x00"]
    elif shape == "shared":
        prefix = draw(st.sampled_from([b"prefix:8", b"prefix:16-bytes:", b"prefix:11ab"]))
        tails = xs + [b"\x00" * 8] * draw(st.booleans())  # a NUL block too
        tail_lens = [0, 1, 7, 8, 9, 16, 24]  # with the prefixes, ends on and off a word
        xs = [
            prefix + rng.choice(tails)[: rng.choice(tail_lens)]
            for _ in range(rng.randrange(1024, 1300))
        ]
    elif shape == "long":
        long = bytes(xs[0][:1] or b"x") * 4097
        xs = xs + [long + s for s in xs[:3]] + [long[:-1], long]
    elif shape == "nul_long":
        long = b"a\x00" * 150
        xs = xs + [long + s for s in xs[:3]] + [long[:-1], long + b"\x00"]
    elif shape == "dups":
        xs = [rng.choice(xs[:3]) for _ in range(rng.choice([3 * len(xs), 1100]))]
    lead = draw(st.lists(st.binary(max_size=4), max_size=2))
    view = PackedStringArray.from_strings(lead + xs + lead)[len(lead) : len(lead) + len(xs)]
    return xs, view


def past_guard_rails(view):
    """A block the ``|S`` argsort cannot sort: a NUL byte, a string over
    4096 bytes, or a key matrix over 128 MiB."""
    width = view.max_len
    return view.has_zero_byte() or width > 4096 or len(view) * width > 1 << 27


class TestLocalSort:
    def test_vector_sort_matches_sorted_and_scalar_lcps(self, monkeypatch):
        """Both kernels against ``sorted()`` and the scalar LCP loop; the
        corpus reaches both, and every guard-rail block the word radix."""
        import repro.sequential.vector_sort as vs

        calls = []
        for name in ("_word_radix", "sort_with_order"):
            kernel = getattr(vs, name)
            monkeypatch.setattr(
                vs, name, lambda arr, name=name, kernel=kernel: calls.append(name) or kernel(arr)
            )
        reached = set()

        @given(sort_blocks())
        @settings(max_examples=300, deadline=None)
        def check(block):
            xs, view = block
            calls.clear()
            stats = CharStats()
            srt, lcps = vector_sort_with_lcp(view, stats)
            assert srt.to_list() == sorted(xs)
            assert lcps.dtype == np.int64 and lcps.tolist() == scalar_lcp_array(sorted(xs))
            if view.num_chars:  # an all-empty block comes back as it is
                assert srt.buffer.size == view.num_chars and srt.offsets[0] == 0
                assert len(calls) == 1
                if past_guard_rails(view):
                    assert calls == ["_word_radix"]
            assert stats == CharStats(
                chars_inspected=view.num_chars, bucket_passes=int(view.num_chars > 0)
            )
            reached.update(calls)

        check()
        assert reached == {"_word_radix", "sort_with_order"}

    @given(sort_blocks())
    @settings(max_examples=150, deadline=None)
    def test_sort_with_order_is_the_stable_argsort_gather(self, block):
        xs, view = block
        srt, order = sort_with_order(view)
        assert order.tolist() == sorted(range(len(xs)), key=xs.__getitem__)
        assert srt.to_list() == take(view, order).to_list() == sorted(xs)
        assert srt.buffer.size == view.num_chars and srt.offsets[0] == 0

    @given(sort_blocks(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_fixed_width_keys_equal_the_ljust_oracle(self, block, data):
        xs, view = block
        width = data.draw(st.integers(1, view.max_len + 3))
        keys = fixed_width_keys(view, width)
        assert keys.dtype == np.dtype(f"S{width}") and keys.shape == (len(xs),)
        assert keys.tobytes() == b"".join(s[:width].ljust(width, b"\x00") for s in xs)

    def test_one_long_string_among_short_ones_gathers_per_character(self, monkeypatch):
        """20 000 strings of 5-35 bytes and one of 1 000: a key matrix would be
        50 cells per character (a 20 MB matrix; emitting its rows copies the
        padding once more, 61 MB traced peak), so none is built and ``take``
        gathers the ``sorted()`` order."""
        import repro.strings.packed as packed_mod

        rng = random.Random(5)
        xs = [bytes(rng.choices(range(97, 123), k=rng.randrange(5, 36))) for _ in range(20000)]
        xs.append(b"z" * 1000)
        arr = PackedStringArray.from_strings(xs)
        gathers = []
        monkeypatch.setattr(
            packed_mod, "take", lambda a, order: gathers.append(len(order)) or take(a, order)
        )
        monkeypatch.setattr(packed_mod, "fixed_width_keys", None)  # calling it fails
        tracemalloc.start()
        try:
            srt, lcps = vector_sort_with_lcp(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gathers == [len(xs)]
        assert srt.to_list() == sorted(xs)
        assert lcps.tolist() == packed_lcp_array(PackedStringArray.from_strings(sorted(xs))).tolist()
        assert peak <= 41e6 * 1.1

    def test_shared_prefix_skewed_block_gathers_per_character(self, monkeypatch):
        """The word radix's twin of the test above: the same block behind a
        common 8-byte prefix sorts on the radix, which builds no key matrix
        either and emits through one ``take``."""
        import repro.sequential.vector_sort as vs
        import repro.strings.packed as packed_mod

        rng = random.Random(5)
        xs = [
            b"prefix:8" + bytes(rng.choices(range(97, 123), k=rng.randrange(5, 36)))
            for _ in range(20000)
        ]
        xs.append(b"prefix:8" + b"z" * 992)
        arr = PackedStringArray.from_strings(xs)
        gathers = []
        monkeypatch.setattr(
            packed_mod, "take", lambda a, order: gathers.append(len(order)) or take(a, order)
        )
        for name in ("fixed_width_keys", "_key_rows"):  # calling either fails
            monkeypatch.setattr(packed_mod, name, None)
        monkeypatch.setattr(vs, "sort_with_order", None)
        tracemalloc.start()
        try:
            srt, lcps = vector_sort_with_lcp(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gathers == [len(xs)]
        assert srt.to_list() == sorted(xs)
        assert lcps.tolist() == scalar_lcp_array(sorted(xs))
        assert peak <= 41e6 * 1.1
