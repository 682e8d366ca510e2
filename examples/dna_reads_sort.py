#!/usr/bin/env python3
"""Sorting DNA reads (the DNAREADS scenario of Figure 5, right).

Sorting raw sequencing reads is a preprocessing step for genome assembly and
index construction.  Compared to web text, DNA reads have a tiny alphabet
({A,C,G,T}), shorter LCPs and a lower D/N ratio — the regime where the
prefix-doubling algorithm (PDMS) saves most of the communication volume.

The example sorts a synthetic read set with MS and PDMS, shows that PDMS only
communicates the short distinguishing prefixes, and demonstrates the
origin-tracking API with which a consumer retrieves the full read behind an
output prefix.

Run with::

    python examples/dna_reads_sort.py [num_reads]
"""

from __future__ import annotations

import pathlib
import sys

# allow running straight from a source checkout (src layout)
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import Cluster, MSSpec, PDMSGolombSpec
from repro.strings import dna_reads, dn_ratio


def main() -> None:
    num_reads = int(sys.argv[1]) if len(sys.argv) > 1 else 5000
    reads = dna_reads(num_reads, read_len=99, seed=11)
    total_chars = sum(len(s) for s in reads)
    print(
        f"input: {len(reads)} reads, {total_chars} base pairs, "
        f"D/N = {dn_ratio(reads):.2f} (paper's DNAREADS: 0.38)\n"
    )

    with Cluster(num_pes=8) as cluster:
        ms = cluster.sort(reads, MSSpec(seed=3), check=True)
        pdms = cluster.sort(reads, PDMSGolombSpec(seed=3), check=True)

    print(f"{'':<14}{'bytes/string':>14}{'total MB sent':>16}")
    for name, res in (("MS", ms), ("PDMS-Golomb", pdms)):
        print(
            f"{name:<14}{res.bytes_per_string():>14.1f}"
            f"{res.report.total_bytes_sent / 1e6:>16.3f}"
        )
    saving = ms.report.total_bytes_sent / max(1, pdms.report.total_bytes_sent)
    print(f"\nPDMS-Golomb communicates {saving:.1f}x fewer bytes than MS on this input.")

    # PDMS outputs distinguishing *prefixes* plus their origin (source PE,
    # position); the full read can be fetched from the owning PE on demand.
    pe = 3
    prefixes = pdms.outputs_per_pe[pe][:5]
    origins = pdms.origins_per_pe[pe][:5]
    print(f"\nfirst prefixes on PE {pe} (with origin -> full read lookup):")
    for prefix, (src_pe, _pos) in zip(prefixes, origins):
        print(f"  {prefix.decode():<28} from PE {src_pe}")


if __name__ == "__main__":
    main()
