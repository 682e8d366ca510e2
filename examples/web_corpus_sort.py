#!/usr/bin/env python3
"""Sorting a web-crawl-like corpus (the COMMONCRAWL scenario of Figure 5, left).

The paper's motivating workload: lines of web-page text dumps with long
shared prefixes and many exact duplicates (boiler-plate/markup).  This
example reads Figure 5's left panel from the figure table
(:mod:`repro.figures`):

1. it reports the D/N statistics of the figure's COMMONCRAWL-like corpus,
2. it sorts the corpus with all six algorithms on 2 to 16 PEs (strong
   scaling),
3. it prints bytes sent per string and the output imbalance (largest over
   mean output characters per PE) as text tables.

Run with::

    python examples/web_corpus_sort.py [seed]
"""

from __future__ import annotations

import pathlib
import sys

# allow running straight from a source checkout (src layout)
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.figures import FIGURES, table
from repro.strings import dn_ratio, merge_lcp_statistics


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0

    corpus = [s for block in FIGURES["fig5-commoncrawl"](seed)[0].blocks for s in block]
    mean_lcp, lcp_frac = merge_lcp_statistics(corpus)
    print(
        f"commoncrawl corpus: {len(corpus)} lines, {sum(len(s) for s in corpus)} characters, "
        f"D/N = {dn_ratio(corpus):.2f}, mean LCP = {mean_lcp:.1f} "
        f"({100 * lcp_frac:.0f}% of a line)"
    )
    print("paper's COMMONCRAWL: D/N = 0.68, mean LCP = 23.9 (60% of a line)\n")

    rows = table("fig5-commoncrawl", seed=seed)
    pes = sorted({row["p"] for row in rows})
    for column in ("bytes_per_string", "imbalance"):
        print(f"{column:<12}" + "".join(f"{f'p={p}':>9}" for p in pes))
        for algorithm in dict.fromkeys(row["label"] for row in rows):
            values = {row["p"]: row[column] for row in rows if row["label"] == algorithm}
            print(f"{algorithm:<12}" + "".join(f"{values[p]:9.2f}" for p in pes))
        print()


if __name__ == "__main__":
    main()
