"""The output check against seeded mutations of real sort results.

Every paper algorithm sorts one input of distinct strings on 4 PEs.  Each
mutation corrupts a copy of that result in one place, picked by a seeded
generator, and :func:`repro.strings.checker.check_sort` must reject every
corrupted copy with a :class:`SortCheckError` that names the PE it
corrupted.  The strings are distinct, so every corruption shows at the
place it was made.

Full sorts: two outputs swapped within a PE or across a PE boundary, one
dropped, one duplicated, one byte flipped, one LCP entry changed.  PDMS: an
origin forged (two outputs trade origins, so every position is still named
once), two outputs swapped together with their origins (each is still a
prefix of its origin, but the order is broken), an origin repeated, a
prefix cut below its ``DIST``, an origin pointing past its block.
"""

import functools
import random

import pytest

from oracles.lcp import distinguishing_prefixes
from repro.dist.api import RankOutput
from repro.session import Cluster
from repro.strings import dn_instance
from repro.strings.checker import SortCheckError, check_sort

FULL_SORTS = ("ms", "ms-simple", "hquick", "fkmerge")
PREFIX_SORTS = ("pdms", "pdms-golomb")
SEEDS = range(8)
DATA = list(dict.fromkeys(dn_instance(500, 0.5, length=20, seed=5)))


@functools.lru_cache(maxsize=None)
def _result(algorithm):
    with Cluster(4) as cluster:
        return cluster.sort(DATA, algorithm, check=True)


def _runs(algorithm):
    """Each PE's output as mutable lists: ``[strings, lcps, origins]``."""
    return [
        [
            list(out.strings),
            None if out.lcps is None else out.lcps.tolist(),
            None if out.origins is None else out.origins.tolist(),
        ]
        for out in _result(algorithm).rank_outputs
    ]


def _pick(runs, rng, at_least=1):
    """A PE holding at least ``at_least`` outputs."""
    return rng.choice([r for r, run in enumerate(runs) if len(run[0]) >= at_least])


def _each(run, fn):
    """Apply ``fn`` to the run's strings and to its LCPs and origins where present."""
    for column in run:
        if column is not None:
            fn(column)


def swap_within(runs, rng):
    r = _pick(runs, rng, 2)
    i, j = sorted(rng.sample(range(len(runs[r][0])), 2))
    strings = runs[r][0]
    strings[i], strings[j] = strings[j], strings[i]
    return r


def swap_across(runs, rng):
    nonempty = [r for r, run in enumerate(runs) if run[0]]
    k = rng.randrange(len(nonempty) - 1)
    r, s = nonempty[k], nonempty[k + 1]
    runs[r][0][-1], runs[s][0][0] = runs[s][0][0], runs[r][0][-1]
    return r


def drop(runs, rng):
    # not a PE's last output: its successor would then sit in the next PE
    r = _pick(runs, rng, 2)
    i = rng.randrange(len(runs[r][0]) - 1)
    _each(runs[r], lambda column: column.pop(i))
    return r


def duplicate(runs, rng):
    r = _pick(runs, rng)
    i = rng.randrange(len(runs[r][0]))
    _each(runs[r], lambda column: column.insert(i, column[i]))
    return r


def flip_byte(runs, rng):
    r = _pick(runs, rng)
    i = rng.randrange(len(runs[r][0]))
    s = bytearray(runs[r][0][i])
    b = rng.randrange(len(s))
    s[b] ^= 1 << rng.randrange(8)
    runs[r][0][i] = bytes(s)
    return r


def change_lcp(runs, rng):
    r = _pick(runs, rng)
    i = rng.randrange(len(runs[r][0]))
    runs[r][1][i] += rng.choice([-1, 1]) if runs[r][1][i] else 1
    return r


def forge_origin(runs, rng):
    r, s = sorted(rng.sample([r for r, run in enumerate(runs) if run[0]], 2))
    i, j = rng.randrange(len(runs[r][2])), rng.randrange(len(runs[s][2]))
    runs[r][2][i], runs[s][2][j] = runs[s][2][j], runs[r][2][i]
    return r


def swap_with_origins(runs, rng):
    r = _pick(runs, rng, 2)
    i, j = rng.sample(range(len(runs[r][0])), 2)
    for column in (runs[r][0], runs[r][2]):
        column[i], column[j] = column[j], column[i]
    return r


def repeat_origin(runs, rng):
    # a later output takes an earlier one's origin, so the later one repeats it
    r = _pick(runs, rng, 2)
    i, j = sorted(rng.sample(range(len(runs[r][2])), 2))
    runs[r][2][j] = list(runs[r][2][i])
    return r


def cut_below_dist(runs, rng):
    dist = dict(zip(DATA, distinguishing_prefixes(DATA)))
    blocks = [sorted(block) for block in _result("pdms").inputs_per_pe]
    r = _pick(runs, rng)
    i = rng.randrange(len(runs[r][0]))
    source, position = runs[r][2][i]
    runs[r][0][i] = runs[r][0][i][: rng.randrange(dist[blocks[source][position]])]
    return r


def origin_out_of_range(runs, rng):
    sizes = [len(block) for block in _result("pdms").inputs_per_pe]
    r = _pick(runs, rng)
    i = rng.randrange(len(runs[r][2]))
    source = runs[r][2][i][0]
    runs[r][2][i] = [source, sizes[source]]
    return r


FULL_MUTATIONS = (swap_within, swap_across, drop, duplicate, flip_byte)
PREFIX_MUTATIONS = (
    forge_origin,
    swap_with_origins,
    repeat_origin,
    cut_below_dist,
    origin_out_of_range,
)


def _assert_caught(algorithm, mutation):
    for seed in SEEDS:
        runs = _runs(algorithm)
        r = mutation(runs, random.Random(seed))
        outputs = [RankOutput(*run) for run in runs]
        with pytest.raises(SortCheckError, match=rf"\bPE {r}\b"):
            check_sort(_result(algorithm).inputs_per_pe, outputs)


@pytest.mark.parametrize("algorithm", FULL_SORTS + PREFIX_SORTS)
def test_real_results_pass(algorithm):
    result = _result(algorithm)
    check_sort(result.inputs_per_pe, [RankOutput(*run) for run in _runs(algorithm)])
    assert len(result.sorted_strings) == len(DATA)


@pytest.mark.parametrize("mutation", FULL_MUTATIONS, ids=lambda m: m.__name__)
@pytest.mark.parametrize("algorithm", FULL_SORTS)
def test_full_sort_mutations_are_caught(algorithm, mutation):
    _assert_caught(algorithm, mutation)


@pytest.mark.parametrize("algorithm", ["ms", "ms-simple", "hquick"])
def test_a_changed_lcp_is_caught(algorithm):
    _assert_caught(algorithm, change_lcp)


@pytest.mark.parametrize("mutation", PREFIX_MUTATIONS, ids=lambda m: m.__name__)
@pytest.mark.parametrize("algorithm", PREFIX_SORTS)
def test_pdms_mutations_are_caught(algorithm, mutation):
    _assert_caught(algorithm, mutation)


class TestEdges:
    def test_empty_input_and_empty_pes(self):
        check_sort([[], []], [RankOutput([]), RankOutput([])])
        check_sort([[b"b"], []], [RankOutput([]), RankOutput([b"b"], [0])])

    def test_a_missing_string_is_named_at_the_end(self):
        with pytest.raises(SortCheckError, match="PE 1 position 0: output 'the end"):
            check_sort([[b"a"], [b"b"]], [RankOutput([b"a"]), RankOutput([])])

    def test_an_extra_string_is_named(self):
        with pytest.raises(SortCheckError, match="PE 0 position 1: .*'the end of the input'"):
            check_sort([[b"a"]], [RankOutput([b"a", b"a"])])

    def test_an_lcp_array_of_the_wrong_length(self):
        with pytest.raises(SortCheckError, match="PE 0: 1 LCPs for 2 strings"):
            check_sort([[b"a", b"b"]], [RankOutput([b"a", b"b"], [0])])

    def test_a_pe_without_origins_beside_pdms_results(self):
        with pytest.raises(SortCheckError, match="PE 1: 0 origins for 1 prefixes"):
            check_sort(
                [[b"a"], [b"b"]],
                [RankOutput([b"a"], None, [[0, 0]]), RankOutput([b"b"])],
            )

    def test_an_unnamed_position(self):
        with pytest.raises(SortCheckError, match="PE 1's sorted block position 0"):
            check_sort([[b"a"], [b"b"]], [RankOutput([b"a"], None, [[0, 0]]), RankOutput([])])

    def test_a_prefix_longer_than_its_origin(self):
        with pytest.raises(SortCheckError, match="PE 0 position 1: b'bb' is no prefix"):
            check_sort([[b"a", b"b"]], [RankOutput([b"a", b"bb"], None, [[0, 0], [0, 1]])])

    def test_a_prefix_that_diverges_from_its_origin(self):
        with pytest.raises(SortCheckError, match="PE 0 position 0: b'ac' is no prefix"):
            check_sort([[b"abc", b"b"]], [RankOutput([b"ac", b"b"], None, [[0, 0], [0, 1]])])
