#!/usr/bin/env python3
"""Quickstart: sort a distributed string array and inspect the traffic report.

Runs every algorithm of the paper on a small synthetic D/N input, verifies
the output against the algorithm's contract, and prints the headline metric
of the paper's evaluation — bytes sent per string — next to the modelled
running time under the alpha-beta machine model.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import pathlib
import sys

# allow running straight from a source checkout (src layout)
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import (
    Cluster,
    FKMergeSpec,
    HQuickSpec,
    MSSimpleSpec,
    MSSpec,
    PDMSGolombSpec,
    PDMSSpec,
)
from repro.strings import dn_instance, dn_ratio


def main() -> None:
    # A D/N = 0.5 instance: the first half of every string is a shared filler
    # prefix, the distinguishing counter sits in the middle (Section VII-A).
    data = dn_instance(num_strings=4000, dn=0.5, length=100, seed=42)
    print(f"input: {len(data)} strings, {sum(len(s) for s in data)} characters, "
          f"D/N = {dn_ratio(data):.2f}")
    print()

    header = f"{'algorithm':<12} {'bytes/string':>12} {'modeled time':>14} {'output'}"
    print(header)
    print("-" * len(header))

    specs = [
        spec_cls(seed=1)
        for spec_cls in (
            HQuickSpec, FKMergeSpec, MSSimpleSpec, MSSpec, PDMSSpec, PDMSGolombSpec
        )
    ]
    # one simulated machine serves every sort below
    with Cluster(num_pes=8) as cluster:
        for spec in specs:
            result = cluster.sort(data, spec, check=True)
            kind = "prefixes" if result.origins_per_pe is not None else "full strings"
            print(
                f"{result.algorithm:<12} {result.bytes_per_string():>12.1f} "
                f"{result.modeled_time():>12.2e} s  {kind}"
            )

        # The sorted data is available as per-PE slices or as one flat list.
        result = cluster.sort(data, MSSpec(), check=True)

    flat = result.sorted_strings
    assert flat == sorted(data)
    print()
    print("first three sorted strings:", [s[:20] for s in flat[:3]])
    print("per-PE output sizes:", [len(part) for part in result.outputs_per_pe])
    print("communication per phase (bytes):", result.report.phase_bytes)


if __name__ == "__main__":
    main()
