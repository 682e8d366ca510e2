#!/usr/bin/env python3
"""Tour of the session API: Cluster, SortSpec, custom algorithms, batch ingest.

Builds one reusable cluster, runs typed specs on it (including a
third-party algorithm: a spec subclass that overrides ``run``), and streams
a chunked corpus through ``sort_batches`` with cumulative accounting.

Run with::

    python examples/session_quickstart.py
"""

from __future__ import annotations

import pathlib
import sys
from dataclasses import dataclass

# allow running straight from a source checkout (src layout)
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import Cluster, MSSpec, PDMSGolombSpec, SortSpec
from repro.strings import dn_instance


def main() -> None:
    data = dn_instance(num_strings=3000, dn=0.5, length=80, seed=7)

    # -- one machine, many sorts -------------------------------------------
    cluster = Cluster(num_pes=8)
    specs = [MSSpec(), MSSpec(sampling="character"), PDMSGolombSpec(epsilon=0.5)]
    print(f"{'config hash':<18} {'algorithm':<12} {'bytes/string':>12}")
    for spec in specs:
        result = cluster.sort(data, spec, check=True)
        print(f"{spec.config_hash():<18} {result.algorithm:<12} "
              f"{result.bytes_per_string():>12.1f}")
    print(f"machine reuses: {cluster.engine.state_reuses} "
          f"(engine state survives across sorts)")

    # -- specs serialize and hash stably -----------------------------------
    spec = PDMSGolombSpec(epsilon=0.5)
    clone = SortSpec.from_dict(spec.to_dict())
    assert clone == spec and clone.config_hash() == spec.config_hash()
    print(f"round-tripped spec: {clone.to_dict()}")

    # -- a custom algorithm is a spec subclass that overrides run ----------
    @dataclass(frozen=True)
    class StampedSpec(MSSpec):
        """MS with a per-run protocol stamp in the extras."""

        algorithm = "ms-stamped"

        def run(self, comm, local):
            output = super().run(comm, local)  # the merge-sort rank program
            output.extra["stamped"] = True
            return output

    custom = Cluster(num_pes=4).sort(data[:500], StampedSpec(), check=True)
    print(f"custom algorithm {custom.algorithm!r} extras: {custom.extra}")

    # -- streaming batch ingest --------------------------------------------
    chunks = [data[i : i + 750] for i in range(0, len(data), 750)]
    stream = Cluster(num_pes=8).sort_batches(
        chunks, MSSpec(), check=True
    )
    for batch in stream:  # lazy: one chunk in memory at a time
        pass
    merged = stream.merged_report
    print(
        f"batch ingest: {stream.batches_done} batches, "
        f"{stream.num_strings} strings, "
        f"{merged.total_bytes_sent} total bytes "
        f"({stream.bytes_per_string():.1f} bytes/string)"
    )


if __name__ == "__main__":
    main()
