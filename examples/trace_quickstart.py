#!/usr/bin/env python3
"""Tour of ``repro.obs``: trace a sort, read the timeline, export artifacts.

Runs one traced multiway-mergesort, prints the terminal waterfall, a few
timeline queries and a metrics excerpt, and writes a Chrome-trace JSON
artifact that opens in ``chrome://tracing`` or https://ui.perfetto.dev.

Run with::

    python examples/trace_quickstart.py [num_strings] [trace.json]

See ``docs/OBSERVABILITY.md`` for the span taxonomy and metric naming.
"""

from __future__ import annotations

import pathlib
import sys
import tempfile

# allow running straight from a source checkout (src layout)
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import Cluster, MSSpec
from repro.obs import render_waterfall, validate_chrome_trace, write_chrome_trace
from repro.strings import dn_instance


def main() -> None:
    num_strings = int(sys.argv[1]) if len(sys.argv) > 1 else 4000
    out_path = (
        sys.argv[2]
        if len(sys.argv) > 2
        else str(pathlib.Path(tempfile.mkdtemp()) / "trace.json")
    )
    data = dn_instance(num_strings=num_strings, dn=0.5, length=80, seed=3)

    # tracing is a per-cluster knob (or REPRO_TRACE=1 process-wide);
    # outputs and byte accounting are bit-identical with it on or off
    with Cluster(num_pes=4, trace=True) as cluster:
        result = cluster.sort(data, MSSpec(), check=True)

    timeline = result.report.timeline
    print(render_waterfall(timeline))
    print()

    # -- the timeline is a queryable span model ----------------------------
    for stage, secs in timeline.stage_seconds(exclusive=True).items():
        print(f"stage seconds      : {stage:<24} {secs * 1e3:8.2f} ms")
    print(f"barrier wait       : {timeline.barrier_seconds() * 1e3:.2f} ms "
          "(metered separately, never booked to a stage)")

    # -- derived metrics snapshot ------------------------------------------
    snap = result.report.metrics
    throughput = snap.value("repro_stage_strings_per_second", stage="merge")
    print(f"merge throughput   : {throughput:,.0f} strings/s")
    rss = snap.value("repro_stage_peak_rss_bytes", stage="exchange")
    print(f"exchange peak RSS  : {rss / 1e6:.1f} MB")

    # -- Chrome-trace export ------------------------------------------------
    write_chrome_trace(timeline, out_path, meta={"example": "trace_quickstart"})
    import json

    violations = validate_chrome_trace(json.load(open(out_path)))
    print(f"chrome trace       : {out_path} "
          f"({'valid' if not violations else violations})")


if __name__ == "__main__":
    main()
