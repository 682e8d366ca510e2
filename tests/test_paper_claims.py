"""The paper's claims, asserted on the exact counters of :mod:`repro.figures`.

Bytes sent per string are exact here, so each claim of the paper's
evaluation is an ordering of table rows, with no wall clock and no
tolerance beyond the paper's own words.  Every test reads its figure
through :func:`rows`, which sorts the figure's cells on first use, so each
id passes when run alone.

``test_row_is_pinned`` holds every row of every figure, at seed 0, to the
file ``python -m repro experiment NAME --json tests/fixtures/figures/NAME.json``
wrote.  A change that moves a counter fails there first, naming the cell;
if the move is intended, rewrite the file with that command.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.figures import FIGURES, table

PINNED = Path(__file__).resolve().parent / "fixtures" / "figures"


@functools.lru_cache(maxsize=None)
def rows(name: str) -> Tuple[Dict[str, object], ...]:
    """Figure ``name``'s table at seed 0, computed once per session."""
    return tuple(table(name))


def pinned(name: str) -> List[Dict[str, object]]:
    return json.loads((PINNED / f"{name}.json").read_text())["rows"]


def cell(name: str, label: str, p: int = 8) -> Dict[str, object]:
    (row,) = [r for r in rows(name) if r["label"] == label and r["p"] == p]
    return row


def volume(name: str, label: str, p: int = 8) -> float:
    """Bytes sent per string of one cell."""
    return cell(name, label, p)["bytes_per_string"]


# ---------------------------------------------------------------------------
# the whole table, pinned


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_the_table_has_the_pinned_cells(name):
    assert [(r["label"], r["p"]) for r in rows(name)] == [
        (r["label"], r["p"]) for r in pinned(name)
    ]


@pytest.mark.parametrize(
    "name, index",
    [(name, i) for name in sorted(FIGURES) for i in range(len(pinned(name)))],
    ids=[f"{name}/{r['label']}/p={r['p']}" for name in sorted(FIGURES) for r in pinned(name)],
)
def test_row_is_pinned(name, index):
    assert rows(name)[index] == pinned(name)[index]


# ---------------------------------------------------------------------------
# Fig. 4: weak scaling over D/N, 700 strings of 160 characters per PE.
# At p = 2 hQuick sends less than MS-simple in every column (D/N 0.5:
# 79.16 against 80.89 bytes per string), so the orderings are asserted
# from p = 4 on; hQuick's volume then grows with every doubling of p.

DN_VALUES = (0.0, 0.25, 0.5, 0.75, 1.0)
FIG4_PES = (4, 8)


def fig4(dn: float, algorithm: str, p: int) -> float:
    return volume("fig4", f"dn={dn:g}/{algorithm}", p)


@pytest.mark.parametrize("p", FIG4_PES)
@pytest.mark.parametrize("dn", DN_VALUES)
def test_fig4_string_sorters_send_less_than_hquick(dn, p):
    assert fig4(dn, "ms", p) < fig4(dn, "hquick", p)
    assert fig4(dn, "ms-simple", p) < fig4(dn, "hquick", p)


@pytest.mark.parametrize("p", FIG4_PES)
@pytest.mark.parametrize("dn", (0.25, 0.5, 0.75, 1.0))
def test_fig4_lcp_compression_saves_volume(dn, p):
    assert fig4(dn, "ms", p) < fig4(dn, "ms-simple", p)


@pytest.mark.parametrize("p", FIG4_PES)
@pytest.mark.parametrize("dn", (0.0, 0.25, 0.5))
def test_fig4_prefix_doubling_wins_at_low_dn(dn, p):
    assert fig4(dn, "pdms", p) < fig4(dn, "ms-simple", p)
    assert fig4(dn, "pdms-golomb", p) <= fig4(dn, "pdms", p) * 1.05


@pytest.mark.parametrize("dn", DN_VALUES)
def test_fig4_hquick_sends_more_per_string_as_p_grows(dn):
    series = [fig4(dn, "hquick", p) for p in (2, 4, 8)]
    assert series[0] < series[1] < series[2], series


# ---------------------------------------------------------------------------
# Fig. 5, left: strong scaling on 8000 COMMONCRAWL-like lines, p = 16


def test_fig5_commoncrawl_lcp_compression_is_the_big_win():
    assert volume("fig5-commoncrawl", "ms", 16) < 0.8 * volume("fig5-commoncrawl", "ms-simple", 16)


def test_fig5_commoncrawl_prefix_doubling_beats_ms_simple():
    assert volume("fig5-commoncrawl", "pdms", 16) < volume("fig5-commoncrawl", "ms-simple", 16)


def test_fig5_commoncrawl_hquick_moves_more_than_ms():
    assert volume("fig5-commoncrawl", "hquick", 16) > volume("fig5-commoncrawl", "ms", 16)


@pytest.mark.parametrize("algorithm", ("ms", "pdms"))
def test_fig5_commoncrawl_volume_grows_with_p(algorithm):
    series = [volume("fig5-commoncrawl", algorithm, p) for p in (2, 4, 8, 16)]
    assert series == sorted(series)


# ---------------------------------------------------------------------------
# Fig. 5, right: strong scaling on 6000 DNAREADS-like reads, p = 16


def test_fig5_dnareads_prefix_doubling_saves_most():
    assert volume("fig5-dnareads", "pdms", 16) < 0.6 * volume("fig5-dnareads", "ms", 16)


def test_fig5_dnareads_golomb_costs_at_most_five_percent_more():
    assert volume("fig5-dnareads", "pdms-golomb", 16) <= volume("fig5-dnareads", "pdms", 16) * 1.05


def test_fig5_dnareads_lcp_compression_helps_mildly():
    assert volume("fig5-dnareads", "ms", 16) <= volume("fig5-dnareads", "ms-simple", 16)


def test_fig5_dnareads_hquick_is_the_most_expensive():
    assert volume("fig5-dnareads", "hquick", 16) > volume("fig5-dnareads", "ms-simple", 16)


# ---------------------------------------------------------------------------
# Sec. VII-E: the suffix instance (D/N << 1) and the skewed D/N instance


def test_suffix_pdms_sends_a_tenth_of_ms():
    assert volume("suffix", "pdms") < volume("suffix", "ms") / 10
    assert volume("suffix", "pdms") < volume("suffix", "ms-simple") / 10


def test_suffix_golomb_costs_at_most_five_percent_more():
    assert volume("suffix", "pdms-golomb") <= volume("suffix", "pdms") * 1.05


def test_skewed_character_sampling_balances_the_output():
    character = cell("skewed", "character-sampling")["imbalance"]
    assert character <= cell("skewed", "string-sampling")["imbalance"] * 1.05


# ---------------------------------------------------------------------------
# the ablations, p = 8


def test_ablation_lcp_compression_saves_on_web_text():
    assert volume("ablations", "web/ms") < volume("ablations", "web/ms-simple")


@pytest.mark.parametrize("arm", ("web/ms-char-sampling", "web/ms-hquick-samples"))
def test_ablation_sampling_barely_moves_the_volume(arm):
    assert volume("ablations", arm) == pytest.approx(volume("ablations", "web/ms"), rel=0.35)


def test_ablation_finer_growth_factor_sends_less_in_more_rounds():
    fine, coarse = cell("ablations", "dna/pdms-eps0.5"), cell("ablations", "dna/pdms-eps3")
    assert fine["exchange_bytes"] <= coarse["exchange_bytes"] * 1.05
    assert fine["doubling_rounds"] >= coarse["doubling_rounds"]


def test_ablation_golomb_never_adds_volume():
    assert volume("ablations", "dna/pdms-golomb") <= volume("ablations", "dna/pdms-eps1") * 1.02


def test_ablation_prefix_doubling_beats_ms_on_dna():
    assert volume("ablations", "dna/pdms-eps1") < volume("ablations", "dna/ms")
