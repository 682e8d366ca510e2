"""Command-line interface: ``python -m repro <command> ...``.

The subcommands cover the workflows a downstream user needs most often:

* ``sort``        — sort a file of newline-separated strings (or a generated
                    workload) with any of the algorithms and report the
                    communication metrics; configurations are typed
                    :class:`repro.session.SortSpec` objects, either built
                    from the flags or loaded verbatim with ``--spec``
                    (JSON, via :meth:`SortSpec.from_dict`);
* ``algorithms``  — list the algorithms: every algorithm's spec class,
                    knobs, defaults and default config hash;
* ``experiment``  — sort every cell of one of the paper's figures
                    (:mod:`repro.figures`) and print its table of exact
                    counters (optionally dump the rows as JSON);
* ``generate``    — write one of the synthetic workloads to a file, e.g. to
                    feed external tools;
* ``trace run``   — run a sort with per-rank tracing armed and export the
                    timeline as Chrome-trace/Perfetto JSON (plus a terminal
                    phase waterfall; see ``docs/OBSERVABILITY.md``);
* ``metrics``     — run a traced sort and print its metrics snapshot in
                    Prometheus text exposition or JSON.

The CLI is deliberately thin: it only parses arguments and delegates to the
library (``repro.session``, ``repro.figures``), so everything it does is also
available programmatically.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields as dataclass_fields
from typing import List, Optional, Sequence

from . import figures
from .net.cost_model import DEFAULT_MACHINE
from .net.router import TOPOLOGY_NAMES
from .session import SPECS, Cluster, SortSpec
from .strings import generators
from .strings.lcp import dn_ratio

__all__ = ["main", "build_parser"]

_GENERATORS = {
    "dn0": lambda n, seed: generators.dn_instance(n, 0.0, length=100, seed=seed),
    "dn25": lambda n, seed: generators.dn_instance(n, 0.25, length=100, seed=seed),
    "dn50": lambda n, seed: generators.dn_instance(n, 0.5, length=100, seed=seed),
    "dn75": lambda n, seed: generators.dn_instance(n, 0.75, length=100, seed=seed),
    "dn100": lambda n, seed: generators.dn_instance(n, 1.0, length=100, seed=seed),
    "commoncrawl": lambda n, seed: generators.commoncrawl_like(n, seed=seed),
    "dnareads": lambda n, seed: generators.dna_reads(n, seed=seed),
    "random": lambda n, seed: generators.random_strings(n, 1, 30, seed=seed),
    "skewed": lambda n, seed: generators.skewed_dn_instance(n, 0.5, length=100, seed=seed),
    "suffixes": lambda n, seed: generators.suffix_instance(
        text_len=n, max_suffix_len=500, seed=seed
    ),
}

def _count(raw: str) -> int:
    """A non-negative integer flag value (argparse ``type``)."""
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_sort_options(parser: argparse.ArgumentParser) -> None:
    """Attach the shared sort flags (``sort`` / ``trace run`` / ``metrics``).

    ``--output`` is *not* added here: it means "sorted strings file" for
    ``sort`` but "trace artifact" for ``trace run``, so each subcommand
    declares its own.
    """
    parser.add_argument(
        "--algorithm", "-a", choices=sorted(SPECS), default="ms"
    )
    parser.add_argument("--num-pes", "-p", type=int, default=8)
    parser.add_argument("--input", "-i", help="file with one string per line (default: generate)")
    parser.add_argument("--workload", "-w", choices=sorted(_GENERATORS), default="dn50")
    parser.add_argument("--num-strings", "-n", type=_count, default=5000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--check", action="store_true", help="verify the output contracts")
    parser.add_argument(
        "--sampling", choices=("string", "character"), default=None,
        help="regular sampling scheme for the splitter determination "
        "(default: string); rejected, like the same --spec key, for "
        "algorithms without sampled splitters",
    )
    parser.add_argument(
        "--distribute-by", choices=("strings", "chars"), default="strings",
        help="input distribution criterion: balance string counts or "
        "character mass (the latter for length-skewed workloads)",
    )
    parser.add_argument(
        "--spec",
        help="full SortSpec as JSON (inline, or @path to a file); parsed via "
        "SortSpec.from_dict and overriding --algorithm/--sampling/"
        "--distribute-by/--seed",
    )
    parser.add_argument(
        "--exchange-topology", choices=TOPOLOGY_NAMES, default=None,
        help="bucket all-to-all delivery strategy: direct (default), or "
        "multi-level routed delivery (hypercube: log2(p) store-and-forward "
        "rounds); outputs and origin wire bytes are identical, "
        "forwarded routing bytes are reported separately",
    )
    parser.add_argument(
        "--engine", default=None,
        help="execution backend: threads (simulated, default) or processes "
        "(real OS processes with shared-memory payload transport); outputs "
        "and wire bytes are bit-identical across engines (default: the "
        "REPRO_ENGINE environment variable, or threads)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="deadlock-detection timeout per blocking operation, in seconds, "
        "of the processes engine; the threads engine detects deadlock exactly "
        "and ignores it (default: the REPRO_SPMD_TIMEOUT environment "
        "variable, or 600)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser: ``sort``, ``algorithms``,
    ``experiment``, ``generate``, ``trace run`` and ``metrics``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Communication-Efficient String Sorting' (IPDPS 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sort = sub.add_parser("sort", help="sort strings with a distributed algorithm")
    _add_sort_options(p_sort)
    p_sort.add_argument("--output", "-o", help="write the sorted strings to this file")
    p_sort.add_argument(
        "--trace", action="store_true",
        help="arm per-rank timeline tracing (repro.obs) and print a terminal "
        "phase waterfall with the report; outputs and byte accounting are "
        "bit-identical with tracing on or off",
    )

    p_alg = sub.add_parser(
        "algorithms", help="list the algorithms and their spec knobs"
    )
    p_alg.add_argument(
        "--json", dest="json_out", action="store_true",
        help="machine-readable output (one spec dict per algorithm)",
    )

    p_exp = sub.add_parser("experiment", help="print one of the paper's figures as exact counters")
    p_exp.add_argument("name", choices=sorted(figures.FIGURES))
    p_exp.add_argument("--json", dest="json_path", help="dump the rows as JSON")
    p_exp.add_argument(
        "--seed", type=int, default=0,
        help="shift every input and spec seed of the figure (default 0: the "
        "table tests/test_paper_claims.py pins)",
    )
    p_exp.add_argument(
        "--metric",
        action="append",
        default=None,
        choices=figures.COLUMNS,
        help="column(s) to print (default: bytes_per_string and model_time_s)",
    )

    p_gen = sub.add_parser("generate", help="write a synthetic workload to a file")
    p_gen.add_argument("workload", choices=sorted(_GENERATORS))
    p_gen.add_argument("--num-strings", "-n", type=_count, default=10000)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", "-o", required=True)

    p_trace = sub.add_parser(
        "trace", help="run a traced sort and export the per-rank timeline"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_trace_run = trace_sub.add_parser(
        "run", help="sort with tracing armed and write a Chrome-trace JSON"
    )
    _add_sort_options(p_trace_run)
    p_trace_run.add_argument(
        "--output", "-o", required=True,
        help="Chrome-trace/Perfetto JSON artifact path (open in "
        "chrome://tracing or https://ui.perfetto.dev)",
    )
    p_trace_run.add_argument(
        "--metrics-out",
        help="also write the derived metrics snapshot as JSON to this file",
    )
    p_trace_run.add_argument(
        "--no-waterfall", action="store_true",
        help="skip the terminal phase waterfall",
    )

    p_metrics = sub.add_parser(
        "metrics", help="run a traced sort and print its metrics snapshot"
    )
    _add_sort_options(p_metrics)
    p_metrics.add_argument(
        "--format", choices=("prom", "json"), default="prom",
        help="Prometheus text exposition (default) or JSON",
    )
    p_metrics.add_argument(
        "--output", "-o",
        help="write the snapshot to this file instead of stdout",
    )

    return parser


def _load_or_generate(args) -> List[bytes]:
    if args.input:
        with open(args.input, "rb") as fh:
            return [line.rstrip(b"\r\n") for line in fh if line.strip()]
    return _GENERATORS[args.workload](args.num_strings, args.seed)


def _spec_from_args(args) -> SortSpec:
    """Build the sort's :class:`SortSpec` from the CLI flags (or ``--spec``)."""
    if args.spec:
        raw = args.spec
        if raw.startswith("@"):
            with open(raw[1:], "r") as fh:
                raw = fh.read()
        return SortSpec.from_dict(json.loads(raw))
    knobs = {
        "algorithm": args.algorithm,
        "seed": args.seed,
        "distribute_by": args.distribute_by,
    }
    if args.sampling is not None:
        knobs["sampling"] = args.sampling
    return SortSpec.from_dict(knobs)


def _run_sort(parser: argparse.ArgumentParser, args, trace: Optional[bool]):
    """Build the cluster from the shared flags and run one sort.

    Returns ``(data, spec, cluster, result)`` so each subcommand can
    render its own view of the same run.  A flag value the spec or the
    cluster rejects exits 2 with a one-line error; an error of the sort
    itself propagates.
    """
    data = _load_or_generate(args)
    try:
        spec = _spec_from_args(args)
        # an unset flag is None: the run configuration the environment asks
        # for (or the default) stays in charge
        cluster = Cluster(
            num_pes=args.num_pes,
            engine=args.engine,
            exchange_topology=args.exchange_topology,
            timeout=args.timeout,
            trace=trace,
        )
    except (OSError, TypeError, ValueError) as exc:
        parser.exit(2, f"{parser.prog} {args.command}: error: {exc}\n")
    with cluster:
        result = cluster.sort(data, spec, check=args.check)
    return data, spec, cluster, result


def _cmd_sort(parser: argparse.ArgumentParser, args) -> int:
    data, spec, cluster, result = _run_sort(
        parser, args, trace=True if args.trace else None
    )
    report = result.report
    print(f"algorithm          : {result.algorithm}")
    print(f"config hash        : {spec.config_hash()}")
    print(f"engine             : {cluster.config.engine}")
    print(f"simulated PEs      : {args.num_pes}")
    print(f"strings / chars    : {result.num_strings} / {result.num_chars}")
    print(f"input D/N          : {dn_ratio(data):.3f}")
    print(f"total bytes sent   : {report.total_bytes_sent}")
    if report.transported_bytes > 0:
        print(f"transported bytes  : {report.transported_bytes} "
              "(real pipe frames + shared-memory payloads)")
    if report.forwarded_bytes > 0:
        # precedence mirrors the exchange itself: spec field, then the cluster
        topology = spec.exchange_topology or cluster.config.exchange_topology
        print(f"origin bytes       : {report.origin_bytes_sent}")
        print(f"forwarded bytes    : {report.forwarded_bytes} "
              f"(multi-level routing, {topology})")
    print(f"bytes per string   : {result.bytes_per_string():.2f}")
    print(f"modelled time      : {result.modeled_time(DEFAULT_MACHINE):.3e} s")
    print(f"bytes by phase     : {dict(report.phase_bytes)}")
    if args.check:
        print("output check       : passed")
    if report.timeline is not None:
        from .obs import render_waterfall

        print()
        print(render_waterfall(report.timeline))
    if args.output:
        with open(args.output, "wb") as fh:
            for s in result.sorted_strings:
                fh.write(s + b"\n")
        print(f"sorted output      : {args.output}")
    return 0


def _cmd_trace(parser: argparse.ArgumentParser, args) -> int:
    """``repro trace run``: traced sort → Chrome-trace JSON (+ waterfall)."""
    from .obs import render_waterfall, write_chrome_trace

    _data, spec, cluster, result = _run_sort(parser, args, trace=True)
    report = result.report
    timeline = report.timeline
    if timeline is None:  # pragma: no cover - tracing was explicitly armed
        print("error: the run produced no timeline", file=sys.stderr)
        return 1
    write_chrome_trace(
        timeline,
        args.output,
        meta={"config_hash": spec.config_hash()},
    )
    print(f"algorithm          : {result.algorithm}")
    print(f"engine             : {cluster.config.engine}")
    print(f"simulated PEs      : {args.num_pes}")
    print(f"trace spans        : {len(timeline.spans)} "
          f"({timeline.dropped_events} dropped)")
    print(f"trace written      : {args.output}")
    if report.metrics is not None and args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            json.dump(report.metrics.to_json(), fh, indent=2)
        print(f"metrics written    : {args.metrics_out}")
    if not args.no_waterfall:
        print()
        print(render_waterfall(timeline))
    return 0


def _cmd_metrics(parser: argparse.ArgumentParser, args) -> int:
    """``repro metrics``: traced sort → Prometheus text / JSON snapshot."""
    _data, _spec, _cluster, result = _run_sort(parser, args, trace=True)
    metrics = result.report.metrics
    if metrics is None:  # pragma: no cover - tracing was explicitly armed
        print("error: the run produced no metrics snapshot", file=sys.stderr)
        return 1
    if args.format == "json":
        rendered = json.dumps(metrics.to_json(), indent=2) + "\n"
    else:
        rendered = metrics.render_prometheus()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(rendered)
        print(f"metrics written    : {args.output}")
    else:
        print(rendered, end="" if rendered.endswith("\n") else "\n")
    return 0


def _cmd_algorithms(args) -> int:
    specs = [SPECS[name]() for name in sorted(SPECS)]
    if args.json_out:
        print(json.dumps([spec.to_dict() for spec in specs], indent=2))
        return 0
    for spec in specs:
        knobs = ", ".join(
            f"{f.name}={getattr(spec, f.name)!r}" for f in dataclass_fields(spec)
        )
        print(f"{spec.algorithm:<12} spec={type(spec).__name__:<16} "
              f"config={spec.config_hash()}")
        print(f"             {knobs}")
    return 0


def _format_value(value: object) -> str:
    if isinstance(value, float):
        if value != 0 and (abs(value) < 1e-2 or abs(value) >= 1e5):
            return f"{value:.3e}"
        return f"{value:.2f}"
    return str(value)


def _render(rows: List[dict], metric: str) -> str:
    """One column of a figure's rows as text: a line per label, a column per p."""
    pes = sorted({row["p"] for row in rows})
    cells = {(row["label"], row["p"]): _format_value(row[metric]) for row in rows}
    labels = list(dict.fromkeys(row["label"] for row in rows))
    lines = [["label"] + [f"p={p}" for p in pes]]
    lines += [[label] + [cells.get((label, p), "-") for p in pes] for label in labels]
    widths = [max(len(line[i]) for line in lines) for i in range(len(lines[0]))]
    return "\n".join(
        "  ".join(v.ljust(w) for v, w in zip(line, widths)).rstrip() for line in lines
    )


def _cmd_experiment(args) -> int:
    rows = figures.table(args.name, seed=args.seed)
    for metric in args.metric or ["bytes_per_string", "model_time_s"]:
        print(f"{args.name} (seed {args.seed}) — {metric}")
        print(_render(rows, metric))
        print()
    if args.json_path:
        # one row per line, so a diff of two dumps names the cells that moved
        body = ",\n  ".join(json.dumps(row) for row in rows)
        with open(args.json_path, "w") as fh:
            fh.write(f'{{"figure": {json.dumps(args.name)}, "seed": {args.seed}, '
                     f'"rows": [\n  {body}\n]}}\n')
        print(f"rows written to {args.json_path}")
    return 0


def _cmd_generate(args) -> int:
    data = _GENERATORS[args.workload](args.num_strings, args.seed)
    with open(args.output, "wb") as fh:
        for s in data:
            fh.write(s + b"\n")
    print(f"wrote {len(data)} strings ({sum(len(s) for s in data)} chars) to {args.output}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sort":
        return _cmd_sort(parser, args)
    if args.command == "algorithms":
        return _cmd_algorithms(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "trace":
        return _cmd_trace(parser, args)
    if args.command == "metrics":
        return _cmd_metrics(parser, args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
