#!/usr/bin/env python3
"""Weak scaling over the tunable D/N inputs (Figure 4, reduced scale).

Reads the paper's main experiment from the figure table
(:func:`repro.figures.table`): for each ratio D/N in {0, 0.25, 0.5, 0.75,
1.0}, all six algorithms sort 700 strings of 160 characters per PE on 2, 4
and 8 PEs (weak scaling: the per-PE input stays constant).  It prints both
panels of Figure 4 — bytes sent per string, and the modelled running time
on a machine scaled to the paper's 500 000 x 500 characters per PE — as one
text table per D/N.

Run with::

    python examples/dn_weak_scaling.py [seed]

Seed 0 is the table ``tests/test_paper_claims.py`` asserts; another seed
draws other inputs and samples.
"""

from __future__ import annotations

import pathlib
import sys

# allow running straight from a source checkout (src layout)
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.figures import table


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    rows = table("fig4", seed=seed)
    pes = sorted({row["p"] for row in rows})
    panels = {}
    for row in rows:
        dn, algorithm = row["label"].split("/")
        panels.setdefault(dn, {}).setdefault(algorithm, {})[row["p"]] = row

    for dn, series in panels.items():
        print(f"Weak scaling, D/N {dn[3:]}: bytes per string | modelled time (s)")
        print(f"{'algorithm':<12}" + "".join(f"{f'p={p}':>9}" for p in pes) + " |"
              + "".join(f"{f'p={p}':>10}" for p in pes))
        for algorithm, cells in series.items():
            volume = "".join(f"{cells[p]['bytes_per_string']:9.1f}" for p in pes)
            time = "".join(f"{cells[p]['model_time_s']:10.3f}" for p in pes)
            print(f"{algorithm:<12}{volume} |{time}")
        print()


if __name__ == "__main__":
    main()
