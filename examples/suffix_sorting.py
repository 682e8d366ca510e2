#!/usr/bin/env python3
"""String sorting as a suffix-sorting subroutine (Section VII-E).

Suffix sorting (building a suffix array) is one of the paper's motivating
applications: the suffixes of one text are extremely long strings whose
distinguishing prefixes are tiny (D/N ~ 1e-4 for the paper's Wikipedia
instance).  Algorithms that communicate whole strings drown in data, while
PDMS only ships the few characters per suffix that matter.

The example builds the suffix instance, sorts it with MS and PDMS, verifies
that the resulting permutation is the suffix array of the text, and compares
communication volumes.

Run with::

    python examples/suffix_sorting.py [text_length]
"""

from __future__ import annotations

import pathlib
import sys

# allow running straight from a source checkout (src layout)
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import Cluster, MSSpec, PDMSGolombSpec, PDMSSpec
from repro.strings import dn_ratio, suffix_instance


def main() -> None:
    text_len = int(sys.argv[1]) if len(sys.argv) > 1 else 4000
    # cap suffix length to bound memory; far above the distinguishing prefixes
    suffixes = suffix_instance(text_len=text_len, alphabet_size=4, max_suffix_len=600, seed=5)
    total_chars = sum(len(s) for s in suffixes)
    print(
        f"suffix instance: {len(suffixes)} suffixes, {total_chars} characters, "
        f"D/N = {dn_ratio(suffixes):.4f}\n"
    )

    results = {}
    with Cluster(num_pes=8) as cluster:
        for spec in (MSSpec(seed=9), PDMSSpec(seed=9), PDMSGolombSpec(seed=9)):
            result = cluster.sort(suffixes, spec, check=True)
            results[result.algorithm] = result

    print(f"{'algorithm':<14}{'bytes/suffix':>14}{'total MB sent':>16}{'modeled time':>16}")
    for name, res in results.items():
        print(
            f"{name:<14}{res.bytes_per_string():>14.1f}"
            f"{res.report.total_bytes_sent / 1e6:>16.3f}"
            f"{res.modeled_time():>16.2e}"
        )

    ms_bytes = results["ms"].report.total_bytes_sent
    pdms_bytes = results["pdms"].report.total_bytes_sent
    print(
        f"\nPDMS moves {ms_bytes / max(1, pdms_bytes):.0f}x less data than MS — the "
        "mechanism behind the ~30x speed-up the paper reports on its suffix instance."
    )

    # The sorted order of the suffixes *is* the suffix array of the text; the
    # MS result carries full suffixes, so we can check against a direct sort.
    flat = results["ms"].sorted_strings
    assert flat == sorted(suffixes)
    print("suffix array verified against a direct sort.")


if __name__ == "__main__":
    main()
